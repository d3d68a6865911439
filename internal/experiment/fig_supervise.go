package experiment

import (
	"fmt"

	"odyssey/internal/faults"
	"odyssey/internal/stats"
)

// MisbehaveSeverities lists the escalating misbehavior ladders, benign
// first. "none" arms the supervisor over a well-behaved workload (the
// overhead arm); "mid" is the acceptance bar: the speech recognizer
// crash-loops until its retry budget is spent and it is quarantined, while
// the survivors absorb hangs, thrash, and consumption lies and the
// battery-duration goal is still met.
var MisbehaveSeverities = []string{"none", "mild", "mid", "severe"}

// misbehavePlans is the misbehavior ladder as data: each severity's
// injectors, in arming order.
var misbehavePlans = map[string][]faults.InjectorSpec{
	"none": nil,
	// Occasional hang windows on the map viewer and rare defiant
	// re-raises from the browser: misbehavior the restart path absorbs
	// without ever exhausting a retry budget.
	"mild": {
		{Kind: faults.KindAppHang, Target: "map", MeanUp: 6 * minute, MeanDown: 15 * second, MaxDown: 30 * second},
		{Kind: faults.KindAppThrash, Target: "web", MeanUp: 10 * minute, MeanDown: 30 * second},
	},
	// The acceptance bar: the speech recognizer crash-loops with a
	// ~2-minute mean uptime, enough deaths in a 26-minute run to exhaust
	// its restart budget and force quarantine, while the map viewer
	// hangs, the browser defies degradation, and the video player opens
	// windows in which it streams two tracks above its reported level, at
	// rates the restart path contains without a second quarantine.
	"mid": {
		{Kind: faults.KindAppCrash, Target: "speech", MeanUp: 2 * minute},
		{Kind: faults.KindAppHang, Target: "map", MeanUp: 5 * minute, MeanDown: 20 * second, MaxDown: 45 * second},
		{Kind: faults.KindAppThrash, Target: "web", MeanUp: 9 * minute, MeanDown: 40 * second},
		{Kind: faults.KindAppLie, Target: "video", MeanUp: 15 * minute, MeanDown: 40 * second, Delta: 2},
	},
	// The stress arm: fast crash-loops, long hangs, frequent thrash, and
	// large consumption lies on every front at once.
	"severe": {
		{Kind: faults.KindAppCrash, Target: "speech", MeanUp: 2 * minute},
		{Kind: faults.KindAppHang, Target: "map", MeanUp: 3 * minute, MeanDown: 30 * second, MaxDown: 60 * second},
		{Kind: faults.KindAppThrash, Target: "web", MeanUp: 3 * minute, MeanDown: 60 * second, Period: second},
		{Kind: faults.KindAppLie, Target: "video", MeanUp: 3 * minute, MeanDown: 60 * second, Delta: 3},
	},
}

// MisbehavePlanByName returns the misbehavior plan for a severity name and
// trial seed: nil for "none" (no misbehavior); unknown names report
// ok=false.
func MisbehavePlanByName(name string, seed int64) (*faults.PlanSpec, bool) {
	return ladderPlan(misbehavePlans, name, name+"-misbehave", faults.MisbehaveSeed(seed))
}

// supervisionGoal reuses the resilience scenario: the hard 26-minute goal
// on the Figure 20 supply, where a misbehaving application that escapes
// containment has the least slack to hide in.
const supervisionGoal = resilienceGoal

// RunSupervisionTrial runs the goal scenario with the supervisor armed
// under the named misbehavior ladder.
func RunSupervisionTrial(severity string, seed int64) GoalResult {
	spec, ok := MisbehavePlanByName(severity, seed)
	if !ok {
		//odylint:allow panicfree experiment misconfiguration; caller passes a known severity
		panic(fmt.Sprintf("experiment: unknown misbehavior severity %q", severity))
	}
	return RunGoal(GoalOptions{
		Seed:          seed,
		InitialEnergy: Figure20InitialEnergy,
		Goal:          supervisionGoal,
		Supervise:     true,
		Misbehave:     spec,
	})
}

// SupervisionRow aggregates trials for one misbehavior severity.
type SupervisionRow struct {
	Severity        string
	MetPct          float64
	Residual        stats.Summary
	SuperviseEnergy stats.Summary // joules charged to the supervise principal
	MissedAcks      stats.Summary
	Restarts        stats.Summary
	Quarantined     stats.Summary // applications quarantined per run
	Strikes         stats.Summary // total strikes across causes
	FaultEvents     stats.Summary
}

// FigureSupervision runs the misbehavior ladder on the goal scenario with
// the supervisor armed, trials runs per severity.
func FigureSupervision(trials int) []SupervisionRow {
	rows := make([]SupervisionRow, 0, len(MisbehaveSeverities))
	for si, sev := range MisbehaveSeverities {
		row := SupervisionRow{Severity: sev}
		var (
			met                            int
			residual, supJ, acks, restarts []float64
			quarantined, strikes, events   []float64
		)
		for t := 0; t < trials; t++ {
			r := RunSupervisionTrial(sev, int64(2600+si*31+t))
			if r.Met {
				met++
			}
			total := 0
			for _, n := range r.Strikes {
				total += n
			}
			residual = append(residual, r.Residual)
			supJ = append(supJ, r.SuperviseEnergy)
			acks = append(acks, float64(r.MissedAcks))
			restarts = append(restarts, float64(r.Restarts))
			quarantined = append(quarantined, float64(len(r.Quarantined)))
			strikes = append(strikes, float64(total))
			events = append(events, float64(r.FaultEvents))
		}
		row.MetPct = float64(met) / float64(trials) * 100
		row.Residual = stats.Summarize(residual)
		row.SuperviseEnergy = stats.Summarize(supJ)
		row.MissedAcks = stats.Summarize(acks)
		row.Restarts = stats.Summarize(restarts)
		row.Quarantined = stats.Summarize(quarantined)
		row.Strikes = stats.Summarize(strikes)
		row.FaultEvents = stats.Summarize(events)
		rows = append(rows, row)
	}
	return rows
}

// SupervisionTable renders the misbehavior-ladder results.
func SupervisionTable(rows []SupervisionRow) *Table {
	t := &Table{
		Title: fmt.Sprintf("Supervision: %d-minute goal under escalating application misbehavior (supply %.0f J, supervisor armed)",
			int(supervisionGoal.Minutes()), Figure20InitialEnergy),
		Columns: []string{"Plan", "Met", "Residual (J)", "Supervise (J)", "Missed acks", "Restarts", "Quarantined", "Strikes", "Fault events"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Severity,
			fmt.Sprintf("%.0f%%", r.MetPct),
			r.Residual.String(),
			r.SuperviseEnergy.String(),
			r.MissedAcks.String(),
			r.Restarts.String(),
			r.Quarantined.String(),
			r.Strikes.String(),
			r.FaultEvents.String(),
		})
	}
	return t
}
