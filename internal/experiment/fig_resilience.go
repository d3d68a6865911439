package experiment

import (
	"fmt"
	"slices"
	"time"

	"odyssey/internal/faults"
	"odyssey/internal/stats"
)

// ResilienceSeverities lists the escalating fault plans, benign first. The
// "mid" plan is the acceptance bar: outages bounded to ~8% of wall time
// (mean 10 s down per ~2:10 cycle, single outage capped at 45 s) and
// server crash windows capped at 60 s.
var ResilienceSeverities = []string{"none", "mild", "mid", "severe"}

// Units for the ladders' spec tables.
const (
	second = faults.Dur(time.Second)
	minute = faults.Dur(time.Minute)
)

// resiliencePlans is the fault ladder as data: each severity's injectors,
// in arming order.
var resiliencePlans = map[string][]faults.InjectorSpec{
	"none": nil,
	// Brief rare outages and light byte loss: the failure level a
	// well-covered campus network shows.
	"mild": {
		{Kind: faults.KindLink, MeanUp: 5 * minute, MeanDown: 5 * second, MaxDown: 20 * second},
		{Kind: faults.KindLoss, Fraction: 0.02, Spread: 0.5},
	},
	// The acceptance bar: outages well under 10% of wall time, crash
	// windows capped at 60 s, plus loss and a distill-server slowdown.
	"mid": {
		{Kind: faults.KindLink, MeanUp: 2 * minute, MeanDown: 10 * second, MaxDown: 45 * second},
		{Kind: faults.KindLoss, Fraction: 0.05, Spread: 0.5},
		{Kind: faults.KindServerCrash, Target: "janus-server", MeanUp: 4 * minute, MeanDown: 20 * second, MaxDown: 60 * second},
		{Kind: faults.KindServerLatency, Target: "distill-server", MeanUp: 3 * minute, MeanDown: 30 * second, Factor: 3},
	},
	// The stress arm: frequent outages (~20% of wall time), heavy loss,
	// recurring crashes and slowdowns on every server dependency.
	"severe": {
		{Kind: faults.KindLink, MeanUp: minute, MeanDown: 15 * second, MaxDown: 60 * second},
		{Kind: faults.KindLoss, Fraction: 0.10, Spread: 0.5},
		{Kind: faults.KindServerCrash, Target: "janus-server", MeanUp: 2 * minute, MeanDown: 30 * second, MaxDown: 60 * second},
		{Kind: faults.KindServerCrash, Target: "distill-server", MeanUp: 3 * minute, MeanDown: 30 * second, MaxDown: 60 * second},
		{Kind: faults.KindServerLatency, Target: "distill-server", MeanUp: 2 * minute, MeanDown: 45 * second, Factor: 5},
	},
}

// ResiliencePlanByName returns the fault plan for a severity name and trial
// seed: nil for "none" (clean run); unknown names report ok=false.
func ResiliencePlanByName(name string, seed int64) (*faults.PlanSpec, bool) {
	return ladderPlan(resiliencePlans, name, name, faults.FaultSeed(seed))
}

// ladderPlan looks a severity up in a ladder's spec table, returning nil
// for a severity without injectors.
func ladderPlan(table map[string][]faults.InjectorSpec, severity, planName string, seed int64) (*faults.PlanSpec, bool) {
	injs, ok := table[severity]
	if len(injs) == 0 {
		return nil, ok
	}
	return &faults.PlanSpec{Name: planName, Seed: seed, Injectors: slices.Clone(injs)}, true
}

// resilienceGoal is the Fig-19 goal-directed scenario the fault ladder runs
// under: the harder 26-minute goal on the Figure 20 supply, which forces
// sustained low-fidelity operation and so leaves the least slack for
// fault-induced waste (measured mid-plan residuals stay under 1.1% of the
// supply; the easier goals leave 3-5% because retry-demand spikes push the
// monitor into conservative degradation it only slowly unwinds).
const resilienceGoal = 26 * time.Minute

// RunResilienceTrial runs the Fig-19 scenario under the named fault plan.
func RunResilienceTrial(severity string, seed int64) GoalResult {
	spec, ok := ResiliencePlanByName(severity, seed)
	if !ok {
		//odylint:allow panicfree experiment misconfiguration; caller passes a known severity
		panic(fmt.Sprintf("experiment: unknown fault severity %q", severity))
	}
	return RunGoal(GoalOptions{
		Seed:          seed,
		InitialEnergy: Figure20InitialEnergy,
		Goal:          resilienceGoal,
		Faults:        spec,
	})
}

// ResilienceRow aggregates trials for one severity.
type ResilienceRow struct {
	Severity       string
	MetPct         float64
	Residual       stats.Summary
	Adaptations    stats.Summary // total upcalls across the four apps
	RetryEnergy    stats.Summary // joules charged to net-retry
	RetryAttempts  stats.Summary
	DeadlineAborts stats.Summary
	Fallbacks      stats.Summary // speech remote/hybrid -> local
	WebDetours     stats.Summary // proxy bypasses + cache hits
	ChunksLost     stats.Summary
	FaultEvents    stats.Summary
}

// FigureResilience runs the fault-severity ladder on the Fig-19 scenario,
// trials runs per severity.
func FigureResilience(trials int) []ResilienceRow {
	rows := make([]ResilienceRow, 0, len(ResilienceSeverities))
	for si, sev := range ResilienceSeverities {
		row := ResilienceRow{Severity: sev}
		var (
			met                                       int
			residual, adapts, retryJ, retries, aborts []float64
			fallbacks, detours, lost, events          []float64
		)
		for t := 0; t < trials; t++ {
			r := RunResilienceTrial(sev, int64(2500+si*31+t))
			if r.Met {
				met++
			}
			total := 0
			for _, n := range r.Adaptations {
				total += n
			}
			residual = append(residual, r.Residual)
			adapts = append(adapts, float64(total))
			retryJ = append(retryJ, r.RetryEnergy)
			retries = append(retries, float64(r.RetryAttempts))
			aborts = append(aborts, float64(r.DeadlineAborts))
			fallbacks = append(fallbacks, float64(r.Fallbacks))
			detours = append(detours, float64(r.Bypasses+r.CacheHits))
			lost = append(lost, float64(r.ChunksLost))
			events = append(events, float64(r.FaultEvents))
		}
		row.MetPct = float64(met) / float64(trials) * 100
		row.Residual = stats.Summarize(residual)
		row.Adaptations = stats.Summarize(adapts)
		row.RetryEnergy = stats.Summarize(retryJ)
		row.RetryAttempts = stats.Summarize(retries)
		row.DeadlineAborts = stats.Summarize(aborts)
		row.Fallbacks = stats.Summarize(fallbacks)
		row.WebDetours = stats.Summarize(detours)
		row.ChunksLost = stats.Summarize(lost)
		row.FaultEvents = stats.Summarize(events)
		rows = append(rows, row)
	}
	return rows
}

// ResilienceTable renders the fault-ladder results.
func ResilienceTable(rows []ResilienceRow) *Table {
	t := &Table{
		Title: fmt.Sprintf("Resilience: %d-minute goal under escalating fault plans (supply %.0f J)",
			int(resilienceGoal.Minutes()), Figure20InitialEnergy),
		Columns: []string{"Plan", "Met", "Residual (J)", "Adapts", "Retry (J)", "Retries", "Aborts", "Speech fallback", "Web detour", "Chunks lost", "Fault events"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Severity,
			fmt.Sprintf("%.0f%%", r.MetPct),
			r.Residual.String(),
			r.Adaptations.String(),
			r.RetryEnergy.String(),
			r.RetryAttempts.String(),
			r.DeadlineAborts.String(),
			r.Fallbacks.String(),
			r.WebDetours.String(),
			r.ChunksLost.String(),
			r.FaultEvents.String(),
		})
	}
	return t
}
