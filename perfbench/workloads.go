package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"time"

	"odyssey/internal/chaos"
	"odyssey/internal/experiment"
	"odyssey/internal/fleet"
)

// Input sizes. A run's cost varies from seed to seed with the sampled
// inputs; these sizes keep that spread near the sandbox's own run-to-run
// noise of a few percent. They are variables only so that the smoke tests
// can shrink them.
var (
	// soakScenarios is the scenario count of one chaos.Soak call. Soak
	// holds every Outcome, each with a trace log preallocated for 65,536
	// events, until it returns, so this sets chaos-soak's memory: about
	// 1 GiB resident.
	soakScenarios = 128
	// fleetDevices is the session count of one fleet.Run call, 32 in each
	// of the default 64 shards.
	fleetDevices = 2048
)

const (
	// soakWindows is how many consecutive scenario windows chaos-soak
	// soaks in turn, one Soak call per batch: 512 scenarios in all.
	soakWindows = 4
	// gridTrials is the trial count per figure cell, the paper's and
	// odyssey-sim's default.
	gridTrials = 5
	// figure2Seed is the seed odyssey-sim renders Figure 2 with.
	figure2Seed = 1
)

// batchResult is one batch's work and its rendered output.
type batchResult struct {
	runs, failed int
	output       string
}

// summary is what the benchmark reads from a workload's public results
// after a loop: simulated seconds per input set, exact simulated
// statistics, and a digest of the canonical outputs. A change that only
// speeds up the simulator must leave the statistics and the digest
// identical.
type summary struct {
	simS    []float64
	simstat []stat
	digest  string
}

type stat struct {
	name  string
	value float64
	unit  string
}

// workload is one closed-loop input set, or several run in turn.
type workload interface {
	// setup builds the inputs from the seed; it is all setup_s measures.
	setup(seed int64)
	// inputSets is how many distinct batches the inputs make up.
	inputSets() int
	// batch runs input set k untraced and checks its output.
	batch(k int) (batchResult, error)
	// tracedBatch runs the same work with spans around the public calls
	// the benchmark can see.
	tracedBatch(k int, rec *recorder) (batchResult, error)
	// summarize reads simulated statistics and the digest from the last
	// batch of each input set.
	summarize() (summary, error)
	// layerMetrics adds the workload's span and replay metrics.
	layerMetrics(rec *recorder, m *metricSet)
}

// workloadOrder lists the workloads; a traced run of one also takes a span
// pass over the others' input sets so that it prints every metric.
var workloadOrder = []string{"chaos-soak", "fleet", "paper-grids"}

func newWorkload(name string) (workload, bool) {
	switch name {
	case "chaos-soak":
		return &chaosSoak{}, true
	case "fleet":
		return &fleetRun{}, true
	case "paper-grids":
		return &paperGrids{}, true
	}
	return nil, false
}

func digestOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return fmt.Sprintf("%x", sum[:8])
}

// ---------------------------------------------------------------------------
// chaos-soak: generated adversarial scenarios through chaos.Soak, as
// `odyssey-chaos -soak N` runs them.

type chaosSoak struct {
	windows [][]chaos.Scenario // the input sets, soakScenarios each
	genUS   []float64          // chaos.Generate time per scenario
	// tallies fold each window's outcomes from its last traced batch, or
	// from the verification pass summarize runs after untraced batches
	// (Soak itself keeps only failures); replay keeps the outcomes of the
	// last window run.
	tallies []*chaosTally
	replay  []*chaos.Outcome
}

func (c *chaosSoak) setup(seed int64) {
	c.windows = make([][]chaos.Scenario, soakWindows)
	c.genUS = c.genUS[:0]
	for w := range c.windows {
		c.windows[w] = make([]chaos.Scenario, soakScenarios)
		for i := range c.windows[w] {
			t := time.Now()
			c.windows[w][i] = chaos.Generate(seed + int64(w*soakScenarios+i))
			c.genUS = append(c.genUS, float64(time.Since(t).Nanoseconds())/1e3)
		}
	}
	c.tallies, c.replay = make([]*chaosTally, soakWindows), nil
}

func (c *chaosSoak) inputSets() int { return len(c.windows) }

func (c *chaosSoak) batch(k int) (batchResult, error) {
	c.tallies[k] = nil
	sum, err := chaos.Soak(chaos.SoakOptions{Scenarios: c.windows[k]})
	if err != nil {
		return batchResult{}, err
	}
	r := batchResult{runs: sum.Ran, failed: len(sum.Failures), output: sum.ReportString()}
	if !sum.Complete() || !sum.OK() {
		return r, fmt.Errorf("chaos soak not clean:\n%s", r.output)
	}
	return r, nil
}

func (c *chaosSoak) tracedBatch(k int, rec *recorder) (batchResult, error) {
	t, err := c.runWindow(k, rec)
	if err != nil {
		return batchResult{}, err
	}
	r := batchResult{runs: t.runs, failed: t.failed, output: t.lines.String()}
	if r.failed > 0 {
		return r, fmt.Errorf("chaos: %d of %d scenarios failed a sentinel", r.failed, r.runs)
	}
	return r, nil
}

// runWindow runs window k's scenarios through chaos.Run on the experiment
// pool, the fan-out Soak performs, and tallies the outcomes; with a
// recorder, the window and each run get a span.
func (c *chaosSoak) runWindow(k int, rec *recorder) (*chaosTally, error) {
	win := c.windows[k]
	outs := make([]*chaos.Outcome, len(win))
	errs := make([]error, len(win))
	parent := 0
	if rec != nil {
		parent = rec.begin("chaos.soak", 0)
	}
	experiment.RunTasks(len(win), func(i int) {
		id := 0
		if rec != nil {
			id = rec.begin("chaos.run", parent)
		}
		outs[i], errs[i] = chaos.Run(win[i])
		if rec != nil {
			rec.end(id)
		}
	})
	if rec != nil {
		rec.end(parent)
	}
	t := &chaosTally{}
	for i, o := range outs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		t.add(o)
	}
	c.tallies[k], c.replay = t, outs
	return t, nil
}

func (c *chaosSoak) summarize() (summary, error) {
	var all chaosTally
	var simS []float64
	var lines strings.Builder
	for k, t := range c.tallies {
		if t == nil {
			var err error
			if t, err = c.runWindow(k, nil); err != nil {
				return summary{}, err
			}
		}
		simS = append(simS, t.end.Seconds())
		all.end += t.end
		all.events += t.events
		all.adapt += t.adapt
		all.faults += t.faults
		all.retries += t.retries
		all.hedges += t.hedges
		all.fallbacks += t.fallbacks
		all.restarts += t.restarts
		lines.WriteString(t.lines.String())
	}
	return summary{
		simS: simS,
		simstat: []stat{
			{"simstat.chaos.trace_events", float64(all.events), "count"},
			{"simstat.chaos.sim_s", all.end.Seconds(), "s"},
			{"simstat.chaos.adaptations", float64(all.adapt), "count"},
			{"simstat.chaos.fault_events", float64(all.faults), "count"},
			{"simstat.chaos.retry_attempts", float64(all.retries), "count"},
			{"simstat.chaos.offload_hedges", float64(all.hedges), "count"},
			{"simstat.chaos.offload_fallbacks", float64(all.fallbacks), "count"},
			{"simstat.chaos.restarts", float64(all.restarts), "count"},
		},
		digest: digestOf(lines.String()),
	}, nil
}

// chaosTally folds scenario outcomes into the simulated statistics and
// one canonical line per outcome, floats in exact hex and the
// per-principal energy ledger included.
type chaosTally struct {
	runs, failed                   int
	end                            time.Duration
	events, adapt, faults, retries int
	hedges, fallbacks, restarts    int
	lines                          strings.Builder
}

func (t *chaosTally) add(o *chaos.Outcome) {
	r := o.Result
	t.runs++
	if !o.Report.OK() {
		t.failed++
	}
	events, dropped := 0, 0
	if r.Events != nil {
		events, dropped = r.Events.Len(), r.Events.Dropped()
	}
	adapt := 0
	for _, n := range r.Adaptations {
		adapt += n
	}
	t.end += r.EndTime
	t.events += events + dropped
	t.adapt += adapt
	t.faults += r.FaultEvents
	t.retries += r.RetryAttempts
	t.hedges += r.OffloadHedges
	t.fallbacks += r.OffloadFallbacks
	t.restarts += r.Restarts

	fmt.Fprintf(&t.lines, "%s ok=%t met=%t end=%d residual=%x events=%d dropped=%d adapt=%d faults=%d retries=%d hedges=%d fallbacks=%d restarts=%d total=%x",
		o.Scenario.ID(), o.Report.OK(), r.Met, r.EndTime, r.Residual, events, dropped, adapt,
		r.FaultEvents, r.RetryAttempts, r.OffloadHedges, r.OffloadFallbacks, r.Restarts, o.Ledger.Total)
	names := make([]string, 0, len(o.Ledger.ByPrincipal))
	for n := range o.Ledger.ByPrincipal {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&t.lines, " %s=%x", n, o.Ledger.ByPrincipal[n])
	}
	t.lines.WriteByte('\n')
}

func (c *chaosSoak) layerMetrics(rec *recorder, m *metricSet) {
	m.add("chaos.generate_us", median(c.genUS), "us")

	runs := sortedCopy(rec.durations("chaos.run"))
	for i := range runs {
		runs[i] *= 1e3
	}
	p99, pct := tailPercentile(runs, 99)
	m.add("chaos.run_ms.p50", median(runs), "ms")
	m.add("chaos.run_ms.p99", p99, "ms")
	m.add("chaos.run_ms.p99_pct", pct, "%")
	m.add("chaos.run_ms.n", float64(len(runs)), "count")

	var busy, wall float64
	var self []float64
	for _, b := range rec.named("chaos.soak") {
		kids := rec.children(b.ID)
		for _, k := range kids {
			busy += k.seconds()
		}
		wall += b.seconds()
		self = append(self, selfTime(b, kids)*1e3)
	}
	m.add("experiment.pool_busy_frac", busy/(float64(experiment.Parallelism())*wall), "ratio")
	m.add("chaos.soak_self_ms", median(self), "ms")

	// Replay the fingerprint's rendering on each outcome's real log.
	for _, o := range c.replay {
		if o.Result.Events == nil {
			continue
		}
		id := rec.begin("trace.render", 0)
		_ = o.Result.Events.Text()
		_ = o.Result.Events.CSV()
		rec.end(id)
	}
	m.add("trace.render_ms", median(rec.durations("trace.render"))*1e3, "ms")
}

// ---------------------------------------------------------------------------
// fleet: device-sessions of the default population through fleet.Run over
// the default 64 shards.

type fleetRun struct {
	pop      fleet.Population
	seed     int64
	perClass map[string]int64 // expected sessions per device class
	goalS    float64          // scheduled simulated seconds per batch
	res      *fleet.Result
}

func (f *fleetRun) setup(seed int64) {
	f.pop = fleet.DefaultPopulation()
	f.seed = seed
	f.perClass = map[string]int64{}
	f.goalS = 0
	for i := 0; i < fleetDevices; i++ {
		s := f.pop.Session(seed, i)
		f.perClass[s.Class]++
		f.goalS += s.Goal.Seconds()
	}
	f.res = nil
}

func (f *fleetRun) run() (batchResult, error) {
	res, err := fleet.Run(fleet.RunOptions{Population: f.pop, Seed: f.seed, Devices: fleetDevices})
	if err != nil {
		return batchResult{}, err
	}
	f.res = res
	a := res.Agg
	if res.Interrupted || a.Sessions != int64(fleetDevices) {
		return batchResult{}, fmt.Errorf("fleet: %d sessions aggregated, want %d", a.Sessions, fleetDevices)
	}
	for class, want := range f.perClass {
		if g := a.ByClass[class]; g == nil || g.Sessions != want {
			return batchResult{}, fmt.Errorf("fleet: class %s aggregated the wrong session count, want %d", class, want)
		}
	}
	return batchResult{
		runs:   int(a.Sessions),
		failed: int(a.ContainedPanics + a.ContainedStalls),
		output: a.Fingerprint(),
	}, nil
}

func (f *fleetRun) inputSets() int { return 1 }

func (f *fleetRun) batch(int) (batchResult, error) { return f.run() }

func (f *fleetRun) tracedBatch(_ int, rec *recorder) (batchResult, error) {
	id := rec.begin("fleet.run", 0)
	defer rec.end(id)
	return f.run()
}

func (f *fleetRun) summarize() (summary, error) {
	a := f.res.Agg
	return summary{
		// Fleet's public result does not expose elapsed simulated time,
		// so a session counts its scheduled goal length.
		simS: []float64{f.goalS},
		simstat: []stat{
			{"simstat.fleet.goal_met", float64(a.GoalMet), "count"},
			{"simstat.fleet.adaptations", float64(a.Adaptations), "count"},
			{"simstat.fleet.fault_events", float64(a.FaultEvents), "count"},
			{"simstat.fleet.restarts", float64(a.Restarts), "count"},
			{"simstat.fleet.quarantines", float64(a.Quarantines), "count"},
			{"simstat.fleet.contained", float64(a.ContainedPanics + a.ContainedStalls), "count"},
		},
		digest: digestOf(a.Fingerprint()),
	}, nil
}

func (f *fleetRun) layerMetrics(rec *recorder, m *metricSet) {
	for i := 0; i < fleetDevices; i++ {
		id := rec.begin("fleet.session", 0)
		_ = f.pop.Session(f.seed, i)
		rec.end(id)
	}
	for i := 0; i < 32; i++ {
		id := rec.begin("fleet.merge", 0)
		fleet.NewAggregate().Merge(f.res.Agg)
		rec.end(id)
	}
	for i := 0; i < 8; i++ {
		id := rec.begin("fleet.scorecard", 0)
		_ = f.res.ScorecardString(true)
		rec.end(id)
	}
	m.add("fleet.run_ms", median(rec.durations("fleet.run"))*1e3, "ms")
	m.add("fleet.session_us", median(rec.durations("fleet.session"))*1e6, "us")
	m.add("fleet.merge_us", median(rec.durations("fleet.merge"))*1e6, "us")
	m.add("fleet.scorecard_ms", median(rec.durations("fleet.scorecard"))*1e3, "ms")
}

// ---------------------------------------------------------------------------
// paper-grids: the paper's fixed-fidelity figures, whose seeds the figures
// fix, plus the Figure 2 PowerScope profile.

type figure struct {
	name string
	run  func() (render string, trials int, simS float64, err error)
}

func gridFigure(name string, fig func(trials int) *experiment.Grid) figure {
	return figure{name, func() (string, int, float64, error) {
		g := fig(gridTrials)
		trials, simS := 0, 0.0
		for _, row := range g.Cells {
			for _, c := range row {
				if c.Energy.N != gridTrials || !(c.Energy.Mean > 0) {
					return "", 0, 0, fmt.Errorf("%s: a cell has %d trials and mean energy %g", name, c.Energy.N, c.Energy.Mean)
				}
				trials += c.Energy.N
				simS += c.Duration.Mean * float64(c.Duration.N)
			}
		}
		return g.Table().String(), trials, simS, nil
	}}
}

var figures = []figure{
	{"fig2", func() (string, int, float64, error) {
		p := experiment.Figure2(figure2Seed)
		if !(p.TotalEnergy > 0) || len(p.Processes) == 0 {
			return "", 0, 0, fmt.Errorf("fig2: empty profile")
		}
		return p.String(), 1, p.Elapsed.Seconds(), nil
	}},
	gridFigure("fig6", experiment.Figure6),
	gridFigure("fig8", experiment.Figure8),
	gridFigure("fig10", experiment.Figure10),
	gridFigure("fig13", experiment.Figure13),
}

type paperGrids struct {
	// trials per figure, from the first batch, so a figure that panics
	// later still counts its runs as failed.
	trials map[string]int
	simS   float64
	output string
}

func (p *paperGrids) setup(int64) {
	p.trials = nil
	p.simS, p.output = 0, ""
}

// runFigure runs one figure behind a panic fence.
func runFigure(f figure) (render string, trials int, simS float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s panicked: %v", f.name, r)
		}
	}()
	return f.run()
}

func (p *paperGrids) run(rec *recorder) (batchResult, error) {
	first := p.trials == nil
	if first {
		p.trials = map[string]int{}
	}
	var r batchResult
	var b strings.Builder
	var firstErr error
	simS := 0.0
	for _, f := range figures {
		id := 0
		if rec != nil {
			id = rec.begin("experiment.figure."+f.name, 0)
		}
		render, trials, s, err := runFigure(f)
		if rec != nil {
			rec.end(id)
		}
		if err != nil {
			if first {
				return r, err
			}
			r.runs += p.trials[f.name]
			r.failed += p.trials[f.name]
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if first {
			p.trials[f.name] = trials
		}
		r.runs += trials
		simS += s
		fmt.Fprintf(&b, "== %s\n%s", f.name, render)
	}
	r.output = b.String()
	p.simS, p.output = simS, r.output
	return r, firstErr
}

func (p *paperGrids) inputSets() int { return 1 }

func (p *paperGrids) batch(int) (batchResult, error) { return p.run(nil) }

func (p *paperGrids) tracedBatch(_ int, rec *recorder) (batchResult, error) { return p.run(rec) }

func (p *paperGrids) summarize() (summary, error) {
	trials := 0
	for _, n := range p.trials {
		trials += n
	}
	return summary{
		simS:    []float64{p.simS},
		simstat: []stat{{"simstat.paper-grids.trials", float64(trials), "count"}},
		digest:  digestOf(p.output),
	}, nil
}

func (p *paperGrids) layerMetrics(rec *recorder, m *metricSet) {
	for _, f := range figures {
		m.add("experiment.figure_ms."+f.name, median(rec.durations("experiment.figure."+f.name))*1e3, "ms")
	}
}
