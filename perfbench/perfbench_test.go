package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain lets this test binary stand in for the benchmark binary when
// setup_s re-executes itself with --setup-only.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "--setup-only" {
			os.Exit(run(os.Args[1:], io.Discard))
		}
	}
	os.Exit(m.Run())
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		want   float64
		value  float64
		pct    float64
		beyond int // samples strictly above the value
	}{
		{n: 2000, want: 99, value: 1980, pct: 99, beyond: 20},
		{n: 1010, want: 99, value: 1000, pct: 100 * 1000.0 / 1010, beyond: 10},
		{n: 100, want: 99, value: 90, pct: 90, beyond: 10},
		{n: 100, want: 50, value: 50, pct: 50, beyond: 50},
		{n: 11, want: 99, value: 1, pct: 100.0 / 11, beyond: 10},
		{n: 5, want: 99, value: 1, pct: 20, beyond: 4},
	} {
		v, pct := tailPercentile(seq(tc.n), tc.want)
		if v != tc.value || math.Abs(pct-tc.pct) > 1e-9 {
			t.Errorf("n=%d p%g: got %g at p%g, want %g at p%g", tc.n, tc.want, v, pct, tc.value, tc.pct)
		}
		if beyond := tc.n - int(v); beyond != tc.beyond {
			t.Errorf("n=%d p%g: %d samples beyond, want %d", tc.n, tc.want, beyond, tc.beyond)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 10}
	children := []span{
		{Parent: 1, Start: 1, End: 3},
		{Parent: 1, Start: 2, End: 5}, // overlaps the first: parallel workers
		{Parent: 1, Start: 7, End: 8},
		{Parent: 1, Start: 9, End: 12}, // runs past the parent: clipped
	}
	// Covered: [1,5] + [7,8] + [9,10] = 6 of 10 seconds.
	if got := selfTime(parent, children); math.Abs(got-4) > 1e-12 {
		t.Errorf("selfTime = %g, want 4", got)
	}
	if got := selfTime(parent, nil); got != 10 {
		t.Errorf("selfTime without children = %g, want 10", got)
	}

	rec := newRecorder()
	p := rec.begin("outer", 0)
	c := rec.begin("inner", p)
	rec.end(c)
	rec.end(p)
	outer := rec.named("outer")[0]
	if self := selfTime(outer, rec.children(p)); self < 0 || self > outer.seconds() {
		t.Errorf("recorded self time %g outside [0, %g]", self, outer.seconds())
	}
}

func TestAttributeInnermostModuleFrame(t *testing.T) {
	for _, tc := range []struct {
		stack []string // innermost first
		want  string
	}{
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice",
			"odyssey/internal/trace.NewLog", "odyssey/internal/experiment.RunGoal", "odyssey/internal/chaos.runOnce"}, "trace"},
		{[]string{"odyssey/internal/sim.(*Kernel).Run", "odyssey/internal/experiment.RunGoal"}, "sim"},
		{[]string{"runtime.mapassign_faststr", "odyssey/internal/power.(*Accountant).flushComponents"}, "power"},
		{[]string{"odyssey/internal/app/video.PlayTrack.func1", "odyssey/internal/sim.(*Kernel).Spawn.func1"}, "apps"},
		{[]string{"odyssey/internal/workload.(*Apps).Register"}, "apps"},
		{[]string{"odyssey/internal/supervise.(*Supervisor).tick"}, "planes"},
		{[]string{"odyssey/internal/offload.(*Service).Decide"}, "planes"},
		{[]string{"odyssey/internal/stats.Summarize"}, "other"},
		{[]string{"main.(*recorder).begin", "odyssey/internal/experiment.runTasks.func1"}, "bench"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "go-runtime"},
		{nil, "go-runtime"},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("attribute(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestCPUProfileDecode(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spin(500 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("no CPU samples collected")
	}
	if shares["bench"] < 0.5 {
		t.Errorf("bench share %g of %d samples, want most of a profile that spins in this package", shares["bench"], samples)
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke tests check
// against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runBench runs the benchmark in dir and decodes its last output line.
func runBench(t *testing.T, dir string, args ...string) (map[string]metric, string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = os.Chdir(wd) }()
	var out bytes.Buffer
	code := run(args, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if code != 0 || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("exit %d, correct=%v attempted=%d failed=%d\n%s", code, res.Correct, res.Attempted, res.Failed, out.String())
	}
	return res.Metrics, out.String()
}

func checkNames(t *testing.T, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	var names []string
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(got) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json lists %d: %v", len(got), len(want), names)
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s not printed", w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
	}
}

// shrinkInputs makes the workloads' inputs small enough for a smoke test.
func shrinkInputs(t *testing.T) {
	scenarios, devices := soakScenarios, fleetDevices
	soakScenarios, fleetDevices = 6, 64
	t.Cleanup(func() { soakScenarios, fleetDevices = scenarios, devices })
}

// TestSmokeEndToEnd runs every workload briefly with its output checks and
// compares the printed metrics with BENCHMARK.json.
func TestSmokeEndToEnd(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadOrder))
	}
	shrinkInputs(t)
	dir := t.TempDir()
	for _, w := range spec.Workloads {
		got, _ := runBench(t, dir, "--workload", w.Name, "--seed", "3", "--seconds", "0.2", "--trace", "0")
		checkNames(t, got, spec.EndToEnd)
		for n, m := range got {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %g, want a positive value", w.Name, n, m.Value)
			}
		}
	}
}

// TestSmokeTraced runs one traced run, which also takes a span pass of
// the other workloads, checks the traced digest against the untraced one,
// and compares the printed metrics with BENCHMARK.json.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload and every layer probe")
	}
	spec := loadSpec(t)
	shrinkInputs(t)
	dir := t.TempDir()
	got, out := runBench(t, dir, "--workload", "paper-grids", "--seed", "3", "--seconds", "0.2", "--trace", "1")
	checkNames(t, got, spec.PerLayer)
	if !strings.Contains(out, "digest untraced=") {
		t.Errorf("traced run printed no digest line:\n%s", out)
	}
	spans, err := filepath.Glob(filepath.Join(dir, outDir, "spans-*.jsonl"))
	if err != nil || len(spans) != len(workloadOrder) {
		t.Errorf("span files %v (%v), want one per workload", spans, err)
	}
}
