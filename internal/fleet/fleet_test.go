package fleet

import (
	"strings"
	"testing"
	"time"

	"odyssey/internal/experiment"
	"odyssey/internal/faults"
	"odyssey/internal/workload"
)

// TestSessionValidity derives a swath of sessions and checks every one is
// runnable: valid app names, positive supply, sane goal, Peukert only on
// smart batteries, class and behavior names from the population.
func TestSessionValidity(t *testing.T) {
	pop := DefaultPopulation()
	valid := map[string]bool{}
	for _, n := range workload.Names {
		valid[n] = true
	}
	classes := map[string]bool{}
	for _, c := range pop.Classes {
		classes[c.Name] = true
	}
	behaviors := map[string]bool{}
	for _, b := range pop.Behaviors {
		behaviors[b.Name] = true
	}
	faulted, misbehaving := 0, 0
	for i := 0; i < 2000; i++ {
		s := pop.Session(3, i)
		if len(s.Apps) == 0 {
			t.Fatalf("session %d: empty app set", i)
		}
		for _, a := range s.Apps {
			if !valid[a] {
				t.Fatalf("session %d: unknown app %q", i, a)
			}
		}
		if !classes[s.Class] || !behaviors[s.Behavior] {
			t.Fatalf("session %d: unknown class/behavior %q/%q", i, s.Class, s.Behavior)
		}
		if s.InitialEnergy <= 0 || s.Goal < 30*time.Second {
			t.Fatalf("session %d: degenerate supply %.1fJ goal %v", i, s.InitialEnergy, s.Goal)
		}
		if !s.SmartBattery && s.Peukert != 0 {
			t.Fatalf("session %d: Peukert %v without a smart battery", i, s.Peukert)
		}
		if s.Start < 0 || s.Start >= pop.Horizon {
			t.Fatalf("session %d: start %v outside horizon %v", i, s.Start, pop.Horizon)
		}
		// Plan seeds use the shared derivations, never the supervisor's.
		if s.Faults != nil {
			faulted++
			if s.Faults.Seed != faults.FaultSeed(s.Seed) {
				t.Fatalf("session %d: fault seed %d, want faults.FaultSeed(%d)", i, s.Faults.Seed, s.Seed)
			}
		}
		if s.Misbehave != nil {
			misbehaving++
			if s.Misbehave.Seed != faults.MisbehaveSeed(s.Seed) {
				t.Fatalf("session %d: misbehave seed %d, want faults.MisbehaveSeed(%d)", i, s.Misbehave.Seed, s.Seed)
			}
			for _, inj := range s.Misbehave.Injectors {
				enabled := false
				for _, a := range s.Apps {
					if inj.Target == a {
						enabled = true
					}
				}
				if !enabled {
					t.Fatalf("session %d: misbehavior aims at disabled app %q", i, inj.Target)
				}
			}
		}
	}
	if faulted == 0 || misbehaving == 0 {
		t.Fatalf("%d faulted and %d misbehaving sessions; the seed checks ran on nothing", faulted, misbehaving)
	}
}

// TestPopulationMixRates checks the weighted draws land near their
// weights over a large derived sample (derivation only — nothing runs).
func TestPopulationMixRates(t *testing.T) {
	pop := DefaultPopulation()
	classN := map[string]int{}
	behaviorN := map[string]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		s := pop.Session(8, i)
		classN[s.Class]++
		behaviorN[s.Behavior]++
	}
	for _, c := range pop.Classes {
		got := float64(classN[c.Name]) / n
		if got < c.Weight-0.05 || got > c.Weight+0.05 {
			t.Errorf("class %s: frequency %.3f, weight %.3f", c.Name, got, c.Weight)
		}
	}
	for _, b := range pop.Behaviors {
		got := float64(behaviorN[b.Name]) / n
		if got < b.Weight-0.05 || got > b.Weight+0.05 {
			t.Errorf("behavior %s: frequency %.3f, weight %.3f", b.Name, got, b.Weight)
		}
	}
}

// TestFleetParallelSerialEquivalence is the scorecard determinism gate in
// miniature: the same fleet reduced at parallelism 1 and 4 must produce
// byte-identical aggregates and scorecards.
func TestFleetParallelSerialEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~100 goal sessions")
	}
	opts := RunOptions{Population: DefaultPopulation(), Seed: 21, Devices: 96, Shards: 16}

	old := experiment.Parallelism()
	defer experiment.SetParallelism(old)

	experiment.SetParallelism(1)
	serial, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	experiment.SetParallelism(4)
	par, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if sf, pf := serial.Agg.Fingerprint(), par.Agg.Fingerprint(); sf != pf {
		t.Fatalf("aggregates diverge across parallelism:\n--- serial\n%s--- parallel\n%s", sf, pf)
	}
	ss, ps := serial.ScorecardString(true), par.ScorecardString(true)
	if ss != ps {
		t.Fatal("scorecards diverge across parallelism")
	}
	if serial.Agg.Sessions != 96 {
		t.Fatalf("sessions %d, want 96", serial.Agg.Sessions)
	}
	if !strings.Contains(ss, "by device class:") || !strings.Contains(ss, "percentile") {
		t.Fatal("scorecard missing expected sections")
	}
}

// TestFleetRunReplay: two runs of the same options are byte-identical —
// the fixed-seed replay contract.
func TestFleetRunReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~60 goal sessions")
	}
	opts := RunOptions{Population: DefaultPopulation(), Seed: 5, Devices: 30, Shards: 8}
	r1, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Agg.Fingerprint() != r2.Agg.Fingerprint() {
		t.Fatal("same-seed fleet runs diverge")
	}
}

// TestFleetEmpty: a zero-device run yields an empty but renderable result.
func TestFleetEmpty(t *testing.T) {
	r, err := Run(RunOptions{Population: DefaultPopulation(), Seed: 1, Devices: 0})
	if err != nil {
		t.Fatal(err)
	}
	if r.Agg.Sessions != 0 {
		t.Fatalf("sessions %d, want 0", r.Agg.Sessions)
	}
	if !strings.Contains(r.ScorecardString(false), "no sessions") {
		t.Fatal("empty scorecard missing placeholder")
	}
}
