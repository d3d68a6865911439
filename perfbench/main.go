// Command perfbench is the repository benchmark. It runs one workload in a
// closed loop from a single process, checks every batch's output, and
// prints every metric by name with its unit; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root, where perfbench/run.sh builds it:
//
//	bash perfbench/run.sh --workload chaos-soak --seed 1 --seconds 10 --trace 0
//
// GOMAXPROCS and experiment.SetParallelism are both fixed at the number of
// CPUs the process may use. Every layer is measured from outside: the
// benchmark times calls into public functions and reads public results.
//
// # Workloads
//
// Every batch is one call of the workload's top-level function. The loop
// runs one unmeasured warm-up batch per input set, then batches back to
// back for --seconds and whole cycles over the input sets; every batch
// must reproduce its warm-up batch's output byte for byte.
//
//   - chaos-soak: chaos.Soak of 128 scenarios per batch, scenario i from
//     chaos.Generate(seed+i), as `odyssey-chaos -soak N` runs them,
//     cycling over four windows: 512 scenarios. It alone records trace
//     events, renders the determinism fingerprint and runs the sentinel
//     audit, so trace-log and GC changes show here and nowhere else.
//   - fleet: fleet.Run of 2048 device-sessions of DefaultPopulation() over
//     the default 64 shards. The energy monitor, smart battery, power
//     ledger and process switches dominate; there is no trace log, so a
//     trace change must read as no change.
//   - paper-grids: Figures 6, 8, 10 and 13 at five trials per cell plus the
//     Figure 2 PowerScope profile, on the seeds the figures fix. No energy
//     monitor, trace log or audit: the kernel process switch, PSResource,
//     netsim flows, hardware power states and PowerScope sampling carry it.
//
// # End-to-end metrics (--trace 0)
//
//   - runs_per_s: runs completed per host second, the median over batches.
//     A run is an audited scenario with its determinism re-run (chaos-soak),
//     a device-session (fleet), or a simulated trial (paper-grids). It is
//     the headline throughput the roadmap tracks.
//   - sim_s_per_s: simulated seconds per host second, the median over
//     batches: the simulator's speed. chaos-soak counts each scenario's
//     Result.EndTime once; paper-grids the cells' Duration and Figure 2's
//     profiled span. Fleet's public result does not expose elapsed
//     simulated time, so fleet counts each session's scheduled goal length,
//     which makes its sim_s_per_s runs_per_s times a constant.
//   - setup_s: from process start until the inputs are ready, the median
//     of 31 fresh child processes that build the inputs and exit. It
//     shows work moved into start-up or input generation.
//   - max_rss_mb: peak resident memory during the timed loop (the
//     kernel's peak counter is reset after the warm-up). chaos-soak holds
//     every outcome's trace log until Soak returns, so memory is a cost
//     users pay there.
//   - ok_ratio: runs that did not fail over runs attempted, that is
//     1 - failed_ratio. A failed run is a scenario with a sentinel
//     violation or run error (chaos-soak), a contained panic or stall
//     (fleet), or a trial of a figure that panicked or failed its output
//     check (paper-grids). The failed count itself is the result's
//     "failed" field.
//
// # Per-layer metrics (--trace 1)
//
// A traced run first repeats the untraced loop, then runs the loop again
// with spans around the public calls and a CPU profile, and fails unless
// both loops give the same digest and simulated statistics. It then takes
// one span pass of each other workload, so that every traced run prints the
// full set; read each span metric on the workload it names. Spans and the
// profile are written under .bench_build/perfbench/out.
//
//   - chaos.*, fleet.*, experiment.*: spans around chaos.Generate and
//     chaos.Run, Population.Session, Aggregate.Merge,
//     Result.ScorecardString and each figure; experiment.pool_busy_frac is
//     the run spans' sum over workers times wall time.
//   - trace.render_ms replays Log.Text plus Log.CSV on each outcome's log.
//   - probes (sim.*, power.*, core.*, smartbattery.*, netsim.*, env.*,
//     powerscope.*, trace.newlog_*): a layer's public functions timed in
//     isolation, per operation, with allocations per operation.
//   - cpu_share.<layer>: each layer's share of the traced loop's CPU
//     samples, charged to the innermost frame in a module package.
//   - go.*: runtime/metrics read around the untraced loop.
//   - tracing.overhead_*: traced minus untraced median batch time.
//   - simstat.*: exact simulated statistics read from public results. A
//     change that only speeds up the simulator must leave them identical.
//
// The bounds in BENCHMARK.json were set on seeds 1 to 10; seed 1001 is held
// out so that a later claim can be re-checked on inputs it was not tuned on.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"

	"odyssey/internal/experiment"
)

const (
	// minBatches is the fewest batches a loop measures, however long they
	// take.
	minBatches = 3
	// setupRepeats is how many child processes setup_s takes the median of.
	setupRepeats = 31
	// outDir receives spans and CPU profiles, relative to the repository
	// root the benchmark runs from.
	outDir = ".bench_build/perfbench/out"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: chaos-soak, fleet or paper-grids")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "seconds each timed loop runs")
	traced := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	setupOnly := fs.Bool("setup-only", false, "build the inputs and exit (setup_s times this)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := newWorkload(*name)
	if !ok || *seconds <= 0 || *traced < 0 || *traced > 1 || fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload %v --seed N --seconds S --trace 0|1\n", workloadOrder)
		return 2
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	experiment.SetParallelism(procs)
	if *setupOnly {
		w.setup(*seed)
		return 0
	}

	_, _ = fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d %s\n",
		*name, *seed, *seconds, *traced, procs, runtime.Version())
	dur := time.Duration(*seconds * float64(time.Second))
	var res result
	if *traced == 1 {
		res = tracedRun(*name, w, *seed, dur, stdout)
	} else {
		res = untracedRun(*name, w, *seed, dur, stdout)
	}
	return res.print(stdout)
}

// loopStats is one timed loop's measurements.
type loopStats struct {
	walls         []float64 // seconds per batch
	runs          []int     // runs per batch
	failed        int
	heapMB        []float64 // heap right after each batch returns
	peakRSSMB     float64   // peak resident memory during the loop
	before, after goSnapshot
}

func (ls loopStats) attempted() int {
	n := 0
	for _, r := range ls.runs {
		n += r
	}
	return n
}

// rate is the median over batches of amount(batch index) per host second.
func (ls loopStats) rate(amount func(k int) float64) float64 {
	rates := make([]float64, len(ls.walls))
	for k, w := range ls.walls {
		rates[k] = amount(k) / w
	}
	return median(rates)
}

// warmUp runs one batch of each input set and returns their outputs, the
// references every later batch must reproduce.
func warmUp(n int, batch func(k int) (batchResult, error)) ([]string, error) {
	refs := make([]string, n)
	for k := range refs {
		r, err := batch(k)
		if err != nil {
			return nil, fmt.Errorf("warm-up batch %d: %w", k, err)
		}
		refs[k] = r.output
	}
	return refs, nil
}

// timedLoop runs batch k on input set k mod len(refs), for at least d, at
// least minBatches batches and whole cycles over the input sets. It stops
// at the first batch that fails its check or renders other output than its
// reference.
func timedLoop(batch func(k int) (batchResult, error), refs []string, d time.Duration) (loopStats, error) {
	var ls loopStats
	if err := resetPeakRSS(); err != nil {
		return ls, err
	}
	ls.before = readGo()
	start := time.Now()
	for k := 0; k < minBatches || k%len(refs) != 0 || time.Since(start) < d; k++ {
		t := time.Now()
		r, err := batch(k % len(refs))
		ls.walls = append(ls.walls, time.Since(t).Seconds())
		ls.heapMB = append(ls.heapMB, liveHeapMB())
		ls.runs = append(ls.runs, r.runs)
		ls.failed += r.failed
		if err == nil && r.output != refs[k%len(refs)] {
			err = errors.New("output differs from the warm-up batch's")
		}
		if err != nil {
			return ls, fmt.Errorf("batch %d: %w", k, err)
		}
	}
	ls.after = readGo()
	var err error
	ls.peakRSSMB, err = peakRSSMB()
	return ls, err
}

// measureUntraced sets the workload up, warms it up, runs its untraced
// loop and summarizes the results.
func measureUntraced(w workload, seed int64, d time.Duration) (loopStats, summary, error) {
	w.setup(seed)
	refs, err := warmUp(w.inputSets(), w.batch)
	if err != nil {
		return loopStats{}, summary{}, err
	}
	ls, err := timedLoop(w.batch, refs, d)
	if err != nil {
		return ls, summary{}, err
	}
	sum, err := w.summarize()
	return ls, sum, err
}

func untracedRun(name string, w workload, seed int64, d time.Duration, out io.Writer) result {
	res := result{metrics: &metricSet{}}
	setupS, err := setupSeconds(name, seed)
	if err != nil {
		return res.fail(err)
	}
	ls, sum, err := measureUntraced(w, seed, d)
	res.attempted, res.failed = ls.attempted(), ls.failed
	if err != nil {
		return res.fail(err)
	}
	_, _ = fmt.Fprintf(out, "batches=%d digest=%s\n", len(ls.walls), sum.digest)
	for _, s := range sum.simstat {
		_, _ = fmt.Fprintf(out, "  %-40s %14v %s\n", s.name, s.value, s.unit)
	}
	sets := len(sum.simS)
	m := res.metrics
	m.add("runs_per_s", ls.rate(func(k int) float64 { return float64(ls.runs[k]) }), "1/s")
	m.add("sim_s_per_s", ls.rate(func(k int) float64 { return sum.simS[k%sets] }), "s/s")
	m.add("setup_s", setupS, "s")
	m.add("max_rss_mb", ls.peakRSSMB, "MB")
	m.add("ok_ratio", float64(res.attempted-res.failed)/float64(res.attempted), "ratio")
	res.correct = true
	return res
}

func tracedRun(name string, w workload, seed int64, d time.Duration, out io.Writer) result {
	res := result{metrics: &metricSet{}}
	u, su, err := measureUntraced(w, seed, d)
	if err != nil {
		return res.fail(fmt.Errorf("untraced loop: %w", err))
	}

	warmRec := newRecorder()
	refs, err := warmUp(w.inputSets(), func(k int) (batchResult, error) { return w.tracedBatch(k, warmRec) })
	if err != nil {
		return res.fail(fmt.Errorf("traced %w", err))
	}
	rec := newRecorder()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return res.fail(err)
	}
	t, err := timedLoop(func(k int) (batchResult, error) { return w.tracedBatch(k, rec) }, refs, d)
	pprof.StopCPUProfile()
	res.attempted, res.failed = t.attempted(), t.failed
	if err != nil {
		return res.fail(fmt.Errorf("traced loop: %w", err))
	}
	st, err := w.summarize()
	if err != nil {
		return res.fail(err)
	}
	_, _ = fmt.Fprintf(out, "batches untraced=%d traced=%d digest untraced=%s traced=%s\n",
		len(u.walls), len(t.walls), su.digest, st.digest)
	if su.digest != st.digest || !sameStats(su.simstat, st.simstat) {
		return res.fail(errors.New("the traced run's digest or simulated statistics differ from the untraced run's"))
	}

	m := res.metrics
	uMed, tMed := median(u.walls), median(t.walls)
	m.add("tracing.overhead_ms_per_batch", (tMed-uMed)*1e3, "ms")
	m.add("tracing.overhead_frac", tMed/uMed-1, "ratio")

	batches := float64(len(u.walls))
	m.add("go.alloc_mb_per_run", float64(u.after.allocBytes-u.before.allocBytes)/(1<<20)/float64(u.attempted()), "MB")
	m.add("go.gc_cycles", float64(u.after.gcCycles-u.before.gcCycles)/batches, "count")
	m.add("go.gc_cpu_frac", (u.after.gcCPU-u.before.gcCPU)/(u.after.totalCPU-u.before.totalCPU), "ratio")
	m.add("go.sched_latency_us.p50", histQuantile(u.before.schedLat, u.after.schedLat, 0.50)*1e6, "us")
	m.add("go.sched_latency_us.p99", histQuantile(u.before.schedLat, u.after.schedLat, 0.99)*1e6, "us")
	m.add("go.live_heap_mb", median(u.heapMB), "MB")

	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		return res.fail(fmt.Errorf("cpu profile: %w", err))
	}
	_, _ = fmt.Fprintf(out, "cpu profile: %d samples\n", samples)
	for _, l := range cpuLayers {
		m.add("cpu_share."+l, shares[l], "ratio")
	}

	// Every traced run prints the full metric set: one span pass of each
	// other workload supplies the spans and statistics of calls this
	// workload does not make.
	for _, wl := range workloadOrder {
		ww, wrec, simstat := w, rec, st.simstat
		if wl != name {
			ww, _ = newWorkload(wl)
			ww.setup(seed)
			wrec = newRecorder()
			for k := 0; k < ww.inputSets(); k++ {
				if _, err := ww.tracedBatch(k, wrec); err != nil {
					return res.fail(fmt.Errorf("%s span pass: %w", wl, err))
				}
			}
			sum, err := ww.summarize()
			if err != nil {
				return res.fail(fmt.Errorf("%s span pass: %w", wl, err))
			}
			simstat = sum.simstat
		}
		ww.layerMetrics(wrec, m)
		for _, s := range simstat {
			m.add(s.name, s.value, s.unit)
		}
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d-%s.jsonl", name, seed, wl))
		if err := wrec.write(path); err != nil {
			return res.fail(err)
		}
	}
	addProbes(m)

	if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("cpu-%s-seed%d.pprof", name, seed)), prof.Bytes(), 0o644); err != nil {
		return res.fail(err)
	}
	res.correct = true
	return res
}

// sameStats reports whether two summaries' simulated statistics are
// identical, value for value.
func sameStats(a, b []stat) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// setupSeconds is the median wall time of fresh child processes that start,
// build the workload's inputs and exit.
func setupSeconds(name string, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < setupRepeats; i++ {
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10), "--setup-only")
		cmd.Stderr = os.Stderr
		t := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("setup child: %w", err)
		}
		ts = append(ts, time.Since(t).Seconds())
	}
	return median(ts), nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in the order they were added.
type metricSet struct {
	names []string
	byKey map[string]metric
}

func (s *metricSet) add(name string, value float64, unit string) {
	if s.byKey == nil {
		s.byKey = map[string]metric{}
	}
	if _, dup := s.byKey[name]; !dup {
		s.names = append(s.names, name)
	}
	s.byKey[name] = metric{value, unit}
}

// result is what one invocation prints.
type result struct {
	correct           bool
	attempted, failed int
	metrics           *metricSet
	err               error
}

func (r result) fail(err error) result {
	r.correct, r.err = false, err
	return r
}

// print writes every metric as a line, then the JSON result line, and
// returns the exit code: 1 when a check failed.
func (r result) print(out io.Writer) int {
	var bad []string
	finite := map[string]metric{}
	for _, n := range r.metrics.names {
		v := r.metrics.byKey[n]
		_, _ = fmt.Fprintf(out, "  %-40s %14.6g %s\n", n, v.Value, v.Unit)
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			bad = append(bad, n)
			continue
		}
		finite[n] = v
	}
	if len(bad) > 0 && r.err == nil {
		sort.Strings(bad)
		r = r.fail(fmt.Errorf("metrics without a finite value: %v", bad))
	}
	if r.err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", r.err)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, finite})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if _, err := fmt.Fprintf(out, "%s\n", line); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !r.correct {
		return 1
	}
	return 0
}
