package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/core"
	"odyssey/internal/experiment"
	"odyssey/internal/sim"
)

// Ledger is the post-run accounting snapshot the sentinels audit: the exact
// energy integral, both attribution ledgers, and the budget-ledger audit
// verdict, captured by Execute while the rig is still alive. It is a plain
// value so a test can corrupt a copy (via the mutateLedger hook below) and
// prove the sentinels catch what the simulation — which has no such bug —
// would never hand them.
type Ledger struct {
	Total       float64
	ByComponent map[string]float64
	ByPrincipal map[string]float64
	Elapsed     time.Duration
	BudgetErr   error
}

// mutateLedger, when non-nil, corrupts every captured ledger before the
// sentinels see it. It exists solely for mutation testing: the
// planted-accounting-bug test sets it to skim energy off one component and
// asserts the conservation sentinel catches and shrinks it. Never set
// outside tests.
var mutateLedger func(*Ledger)

// Outcome is one scenario's full audit.
type Outcome struct {
	Scenario Scenario
	Result   experiment.GoalResult
	Ledger   Ledger
	Report   Report
}

// Contained describes a fault the run fence recovered: the sentinel it
// maps to (SentinelPanic or SentinelStall) and the triage detail.
type Contained struct {
	Sentinel string
	Detail   string
}

// Execution is one fenced run of a scenario: the goal result, the ledger
// snapshot taken while the rig was still alive, and the fault the fence
// recovered (nil for a run that finished). A contained run's result and
// ledger are partial.
type Execution struct {
	Result    experiment.GoalResult
	Ledger    Ledger
	Contained *Contained
}

// Execute runs the scenario once through the goal-directed experiment on a
// fresh rig. It is the one place the chaos and fleet planes turn a run spec
// into GoalOptions: it passes the fault and misbehavior specs through,
// captures the ledger, and fences the run. Any panic
// unwinding RunGoal — a process fault transported by the kernel
// (sim.ProcPanic), a kernel-context panic from an injector or callback, or
// the stall detector's sim.ErrStall — comes back as Execution.Contained
// instead of killing the soak or fleet. The rig's goroutines are already
// torn down when the fence fires: RunGoal defers Kernel.Shutdown.
// recordEvents attaches the trace log the sentinels audit. The error is
// reserved for a plan RunGoal cannot build (unknown target, missing
// battery): a spec error, not a run outcome.
func Execute(sc Scenario, recordEvents bool) (Execution, error) {
	var ex Execution
	opt := experiment.GoalOptions{
		Seed:            sc.Seed,
		InitialEnergy:   sc.InitialEnergy,
		Goal:            time.Duration(sc.Goal),
		Bursty:          sc.Bursty,
		SmartBattery:    sc.SmartBattery,
		Peukert:         sc.Peukert,
		Supervise:       sc.Supervise,
		Faults:          sc.Faults,
		Misbehave:       sc.Misbehave,
		Apps:            sc.AppsOrAll(),
		Profile:         sc.Profile,
		CompositePeriod: time.Duration(sc.CompositePeriod),
		StallBound:      sc.StallBound,
		RecordEvents:    recordEvents,
		Observe: func(rig *env.Rig, em *core.EnergyMonitor) {
			led := &ex.Ledger
			led.Total = rig.M.Acct.TotalEnergy()
			led.ByComponent = rig.M.Acct.EnergyByComponent()
			led.ByPrincipal = rig.M.Acct.EnergyByPrincipal()
			led.Elapsed = rig.K.Now()
			led.BudgetErr = em.AuditBudgetShares()
			if mutateLedger != nil {
				mutateLedger(led)
			}
		},
	}
	if o := sc.Offload; o != nil {
		opt.Offload = &experiment.OffloadConfig{Servers: o.Servers, Contention: o.Contention, NoHedge: o.NoHedge, Policy: o.Policy}
	}
	ex.Result, ex.Contained = runFenced(opt)
	if err := ex.Result.PlanErr; err != nil {
		return ex, fmt.Errorf("chaos: scenario %s: %w", sc.ID(), err)
	}
	return ex, nil
}

// runFenced is Execute's panic fence around RunGoal.
func runFenced(opt experiment.GoalOptions) (res experiment.GoalResult, cv *Contained) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		switch f := r.(type) {
		case *sim.ErrStall:
			cv = &Contained{Sentinel: SentinelStall, Detail: f.Error()}
		case *sim.ProcPanic:
			cv = &Contained{Sentinel: SentinelPanic, Detail: fmt.Sprintf("%v\n%s", f.Error(), f.Stack)}
		default:
			// Kernel-context panic: the stack below this recover still
			// holds the crash site's frames, so capture it here.
			cv = &Contained{Sentinel: SentinelPanic, Detail: fmt.Sprintf("kernel-context panic: %v\n%s", r, sim.CallerStack(1))}
		}
	}()
	return experiment.RunGoal(opt), nil
}

// fingerprint renders everything observable about a run into one string:
// the full event trace (text and CSV), the outcome, and the per-principal
// energy integrals in exact hex float form. Two runs of the same scenario
// must produce byte-identical fingerprints — the determinism sentinel.
func fingerprint(res experiment.GoalResult) string {
	var b strings.Builder
	if res.Events != nil {
		b.WriteString(res.Events.Text())
		b.WriteString(res.Events.CSV())
	}
	fmt.Fprintf(&b, "met=%v end=%v residual=%x\n", res.Met, res.EndTime, res.Residual)
	apps := make([]string, 0, len(res.Adaptations))
	for name := range res.Adaptations {
		apps = append(apps, name)
	}
	sort.Strings(apps)
	for _, name := range apps {
		fmt.Fprintf(&b, "adapt %s=%d fid=%x\n", name, res.Adaptations[name], res.MeanFidelity[name])
	}
	fmt.Fprintf(&b, "faults=%d retries=%d retryJ=%x restarts=%d quarantined=%v\n",
		res.FaultEvents, res.RetryAttempts, res.RetryEnergy, res.Restarts, res.Quarantined)
	fmt.Fprintf(&b, "offload local=%d remote=%d hybrid=%d hedges=%d failovers=%d fallbacks=%d trips=%d offJ=%x\n",
		res.OffloadLocal, res.OffloadRemote, res.OffloadHybrid, res.OffloadHedges,
		res.OffloadFailovers, res.OffloadFallbacks, res.BreakerTrips, res.OffloadEnergy)
	return b.String()
}

// firstDiff locates the first byte where two fingerprints diverge and
// returns a short context excerpt for the violation detail.
func firstDiff(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			hiA, hiB := i+40, i+40
			if hiA > len(a) {
				hiA = len(a)
			}
			if hiB > len(b) {
				hiB = len(b)
			}
			return fmt.Sprintf("first divergence at byte %d: %q vs %q", i, a[lo:hiA], b[lo:hiB])
		}
	}
	return fmt.Sprintf("length mismatch: %d vs %d bytes", len(a), len(b))
}

// sentinelHook, when non-nil, runs at the head of the sentinel audit. It
// exists solely for containment self-tests that plant a panic inside the
// audit itself. Never set outside tests.
var sentinelHook func(sc Scenario)

// auditContained is the panic fence around the sentinel audit itself: a
// crashing sentinel becomes a panic violation in the report it was
// producing, so a bug in the audit code is triaged like any other crash
// instead of taking the soak down.
func auditContained(sc Scenario, res experiment.GoalResult, led Ledger) (rep Report) {
	defer func() {
		if r := recover(); r != nil {
			rep = Report{ScenarioID: sc.ID()}
			rep.add(SentinelPanic, fmt.Sprintf("panic in sentinel audit: %v\n%s", r, sim.CallerStack(1)))
		}
	}()
	if sentinelHook != nil {
		sentinelHook(sc)
	}
	return audit(sc, res, led)
}

// Run executes the scenario twice — once for the sentinel audit, once more
// to check same-seed determinism — and returns the full outcome. The error
// return is reserved for scenarios that cannot run at all (a spec naming an
// absent target); invariant violations, including contained panics and
// stalls, are in the Report.
func Run(sc Scenario) (*Outcome, error) {
	sc = sc.normalize()
	ex, err := Execute(sc, true)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Scenario: sc, Result: ex.Result, Ledger: ex.Ledger}
	if cv := ex.Contained; cv != nil {
		// The run died mid-flight: its result and ledger are partial, so
		// neither the post-run audit nor the determinism double-run apply.
		// The contained fault is the report.
		out.Report = Report{ScenarioID: sc.ID()}
		out.Report.add(cv.Sentinel, cv.Detail)
		return out, nil
	}
	out.Report = auditContained(sc, ex.Result, ex.Ledger)
	if out.Report.Has(SentinelPanic) {
		// The audit itself crashed; a second run would audit nothing new.
		return out, nil
	}

	ex2, err := Execute(sc, true)
	if err != nil {
		return nil, err
	}
	if ex2.Contained != nil {
		// First run clean, second crashed: that is itself a determinism
		// violation, with the crash as the diverging observation.
		out.Report.add(SentinelDeterminism, "second run did not complete: "+ex2.Contained.Detail)
		return out, nil
	}
	if fp1, fp2 := fingerprint(ex.Result), fingerprint(ex2.Result); fp1 != fp2 {
		out.Report.add(SentinelDeterminism, firstDiff(fp1, fp2))
	}
	return out, nil
}
