package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"sort"
	"testing"
	"time"

	"odyssey/internal/stats"
)

// goldenLadderDigest pins the three fault ladders' observable behaviour
// across commits: every severity of the resilience and supervision ladders
// and every (policy, environment) cell of the offload ladder, each at one
// figure seed, rendered in exact hex floats. A refactor of how the ladders
// build their plans must leave it unchanged.
const goldenLadderDigest = "e2aee9efca5e0aebb1e3dea8e159958f7ae962e41e7c43afce7b397202d61279"

// goldenPaperDigest pins the paper's measured figures across commits: the
// fixed-fidelity grids of Figures 6, 8, 10 and 13 at one trial each, with
// every cell's energy and duration summaries and per-principal breakdown,
// plus the goal-directed run `battery-goal -goal 26m -seed 7` prints and
// traces (supply/demand/fidelity trace and event log), all in exact hex
// floats. A refactor of the kernel, the power path or the applications
// that is meant to be byte-identical must leave it unchanged.
const goldenPaperDigest = "21a5d49d21c826605c6e996442c1fcec2e9c1407d8baaf54fefde408ae7b5acc"

// writeSorted renders a map with sorted keys, values through format.
func writeSorted[V any](w io.Writer, label string, m map[string]V, format string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%s:", label)
	for _, k := range keys {
		fmt.Fprintf(w, " %s="+format, k, m[k])
	}
	fmt.Fprintln(w)
}

// writeGoldenResult renders every outcome, counter and energy of one run.
func writeGoldenResult(w io.Writer, r GoalResult) {
	fmt.Fprintf(w, "met=%v end=%v residual=%x\n", r.Met, r.EndTime, r.Residual)
	writeSorted(w, "adapt", r.Adaptations, "%d")
	writeSorted(w, "fid", r.MeanFidelity, "%x")
	writeSorted(w, "faults", r.FaultCounts, "%d")
	writeSorted(w, "shares", r.BudgetShares, "%x")
	writeSorted(w, "strikes", r.Strikes, "%d")
	fmt.Fprintf(w, "retryJ=%x retries=%d retryB=%x aborts=%d fallbacks=%d bypasses=%d cache=%d lost=%d missed=%d events=%d\n",
		r.RetryEnergy, r.RetryAttempts, r.RetryBytes, r.DeadlineAborts, r.Fallbacks,
		r.Bypasses, r.CacheHits, r.ChunksLost, r.MissedSamples, r.FaultEvents)
	fmt.Fprintf(w, "supJ=%x acks=%d restarts=%d quarantined=%v\n",
		r.SuperviseEnergy, r.MissedAcks, r.Restarts, r.Quarantined)
	fmt.Fprintf(w, "offJ=%x local=%d remote=%d hybrid=%d hedges=%d failovers=%d fallbacks=%d trips=%d\n",
		r.OffloadEnergy, r.OffloadLocal, r.OffloadRemote, r.OffloadHybrid,
		r.OffloadHedges, r.OffloadFailovers, r.OffloadFallbacks, r.BreakerTrips)
}

// TestGoldenLadderDigest is the cross-commit referee for the resilience,
// supervision and offload ladders. The pin is amd64-only: on other
// architectures the compiler fuses multiply-add pairs into FMA
// instructions, so the float bits differ.
func TestGoldenLadderDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digest pinned on amd64; %s fuses multiply-add (FMA), so float bits differ", runtime.GOARCH)
	}
	h := sha256.New()
	for _, sev := range ResilienceSeverities {
		fmt.Fprintf(h, "resilience %s\n", sev)
		writeGoldenResult(h, RunResilienceTrial(sev, 2562))
	}
	for _, sev := range MisbehaveSeverities {
		fmt.Fprintf(h, "supervision %s\n", sev)
		writeGoldenResult(h, RunSupervisionTrial(sev, 2662))
	}
	for _, sev := range OffloadSeverities {
		for _, pol := range OffloadPolicies {
			fmt.Fprintf(h, "offload %s:%s\n", pol, sev)
			writeGoldenResult(h, RunOffloadTrial(pol, sev, 2800))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenLadderDigest {
		t.Errorf("ladder golden digest %s, want %s", got, goldenLadderDigest)
	}
}

// writeGoldenGrid renders every cell of a figure grid in exact hex floats.
func writeGoldenGrid(w io.Writer, g *Grid) {
	fmt.Fprintf(w, "grid %s objects=%q bars=%q\n", g.Title, g.Objects, g.Bars)
	for i, row := range g.Cells {
		for j, c := range row {
			fmt.Fprintf(w, "%s/%s\n", g.Objects[i], g.Bars[j])
			for _, s := range []stats.Summary{c.Energy, c.Duration} {
				fmt.Fprintf(w, " n=%d mean=%x sd=%x ci90=%x min=%x max=%x\n", s.N, s.Mean, s.StdDev, s.CI90, s.Min, s.Max)
			}
			writeSorted(w, "breakdown", c.Breakdown, "%x")
		}
	}
}

// TestGoldenPaperDigest is the cross-commit referee for the paper's
// figures. The pin is amd64-only: on other architectures the compiler
// fuses multiply-add pairs into FMA instructions, so the float bits differ.
func TestGoldenPaperDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digest pinned on amd64; %s fuses multiply-add (FMA), so float bits differ", runtime.GOARCH)
	}
	h := sha256.New()
	for _, g := range []*Grid{Figure6(1), Figure8(1), Figure10(1), Figure13(1)} {
		writeGoldenGrid(h, g)
	}
	// The options battery-goal builds for -goal 26m -seed 7.
	r := RunGoal(GoalOptions{
		Seed: 7, InitialEnergy: Figure20InitialEnergy, Goal: 26 * time.Minute,
		RecordTrace: true, RecordEvents: true,
	})
	writeGoldenResult(h, r)
	for _, tp := range r.Trace {
		fmt.Fprintf(h, "t=%v supply=%x demand=%x\n", tp.Time, tp.Supply, tp.Demand)
		writeSorted(h, "levels", tp.Levels, "%d")
	}
	for _, e := range r.Events.Events() {
		fmt.Fprintf(h, "%v %s %s %s %x\n", e.Time, e.Category, e.Subject, e.Message, e.Value)
	}
	fmt.Fprintf(h, "dropped=%d\n", r.Events.Dropped())
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenPaperDigest {
		t.Errorf("paper golden digest %s, want %s", got, goldenPaperDigest)
	}
}
