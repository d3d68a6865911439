// Package power provides energy accounting for the simulated mobile
// computer: an exact piecewise-constant power integrator (the ground truth
// that PowerScope's statistical sampling estimates), a sampled multimeter
// stream, and the energy supply (battery) model used by goal-directed
// adaptation.
//
// Two attributions are maintained simultaneously, mirroring the paper:
//
//   - per hardware component (display, network, disk, cpu, other): the basis
//     of Figure 4 and the zoned-backlight projections, and
//   - per software principal (the process/procedure executing when the power
//     was drawn): the shaded segments of the paper's bar charts and the rows
//     of PowerScope profiles. All instantaneous power — including the
//     display's — is attributed to the currently running software, exactly
//     as PowerScope's current/PC sample correlation does.
package power

import (
	"fmt"
	"time"

	"odyssey/internal/sim"
)

// IdlePrincipal is the software principal charged when no process is
// runnable — the kernel idle procedure (a Pentium hlt in the paper).
const IdlePrincipal = "Idle"

// superlinearComponent is the pseudo-component booked with the excess of
// total power over the component sum.
const superlinearComponent = "superlinear"

// idleSlot is IdlePrincipal's slot in the principal ledger.
const idleSlot = 0

// Accountant integrates energy exactly from piecewise-constant component
// powers and CPU ownership shares.
type Accountant struct {
	k *sim.Kernel

	// draw is the current draw per component slot (W), -1 for a slot no
	// SetComponent has listed yet (the superlinear pseudo-component).
	draw []float64
	// order holds the listed component slots sorted by name, so that
	// power sums accumulate in a deterministic order independent of when
	// each component was first set.
	order []int
	// shares is the current CPU ownership (empty = idle); shareSlots
	// holds each share's principal slot, resolved once per snapshot.
	shares     []sim.Share
	shareSlots []int

	// Superlinear, if non-nil, maps the component sum to total power,
	// modelling the consistently superlinear draw the paper measured
	// (+0.21 W at full-on idle on the ThinkPad 560X).
	Superlinear func(sum float64) float64

	last           time.Duration
	totalEnergy    float64
	byComponent    ledger
	byPrincipal    ledger
	componentCache float64
	cacheValid     bool

	// pendingDt batches the per-component ledger walk: component draws are
	// piecewise constant and change far less often than CPU shares, so
	// integrate only accumulates the elapsed seconds here and the
	// O(components) walk runs once per draw change (flushComponents)
	// instead of once per integration segment.
	pendingDt float64
}

// NewAccountant returns an accountant bound to k with no components.
func NewAccountant(k *sim.Kernel) *Accountant {
	a := &Accountant{
		k:           k,
		draw:        make([]float64, 0, ledgerCap),
		order:       make([]int, 0, ledgerCap),
		byComponent: newLedger(),
		byPrincipal: newLedger(),
		last:        k.Now(),
	}
	a.byPrincipal.slot(IdlePrincipal) // idleSlot
	return a
}

// componentSlot returns name's component slot, assigning an unlisted one
// on first sight.
func (a *Accountant) componentSlot(name string) int {
	s := a.byComponent.slot(name)
	if s == len(a.draw) {
		//odylint:allow hotalloc grows once per component name, the first time it is seen
		a.draw = append(a.draw, -1)
	}
	return s
}

// SetComponent updates the instantaneous draw of a hardware component,
// integrating energy up to the current instant first.
func (a *Accountant) SetComponent(name string, watts float64) {
	if watts < 0 {
		//odylint:allow panicfree negative draw corrupts every downstream integral; invariant guard
		panic(fmt.Sprintf("power: component %q set to negative power %g", name, watts))
	}
	s := a.componentSlot(name)
	cur := a.draw[s]
	known := cur >= 0
	//odylint:allow floateq exact no-op detection: an unchanged draw extends the current constant segment, it does not start a new one
	if known && cur == watts {
		return
	}
	a.integrate()
	a.flushComponents()
	if !known {
		a.order = a.byComponent.insertByName(a.order, s)
	}
	a.draw[s] = watts
	a.cacheValid = false
}

// Component returns the current draw of a component (0 if never set).
func (a *Accountant) Component(name string) float64 {
	if s, ok := a.byComponent.lookup(name); ok && a.draw[s] >= 0 {
		return a.draw[s]
	}
	return 0
}

// SetShares updates the CPU ownership snapshot used for software
// attribution. An empty slice means the idle principal is charged. A
// snapshot identical to the current one is a no-op: it neither starts a
// new integration segment nor copies the slice. A changed snapshot
// resolves each share's principal to its ledger slot here, once, so the
// integration segments it covers only add into slices.
func (a *Accountant) SetShares(shares []sim.Share) {
	if sameShares(a.shares, shares) {
		return
	}
	a.integrate()
	a.shares = append(a.shares[:0], shares...)
	a.shareSlots = a.shareSlots[:0]
	for _, s := range shares {
		//odylint:allow hotalloc slot-list growth is amortized: capacity is retained across snapshots
		a.shareSlots = append(a.shareSlots, a.byPrincipal.slot(s.Principal))
	}
}

// sameShares reports whether two ownership snapshots are elementwise
// identical.
func sameShares(a, b []sim.Share) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		//odylint:allow floateq exact no-op detection: identical snapshots extend the current segment, tolerance would merge genuinely different splits
		if a[i].Principal != b[i].Principal || a[i].Fraction != b[i].Fraction {
			return false
		}
	}
	return true
}

// Power returns the current total draw including any superlinear term.
func (a *Accountant) Power() float64 {
	if !a.cacheValid {
		sum := 0.0
		for _, s := range a.order {
			sum += a.draw[s]
		}
		a.componentCache = sum
		a.cacheValid = true
	}
	if a.Superlinear != nil {
		return a.Superlinear(a.componentCache)
	}
	return a.componentCache
}

// integrate accrues energy for the segment since the last change. The
// per-component ledger walk is deferred: component draws are constant
// until the next SetComponent, so the segment only contributes elapsed
// time to pendingDt and flushComponents books the whole constant-draw
// window at once.
func (a *Accountant) integrate() {
	now := a.k.Now()
	dt := (now - a.last).Seconds()
	a.last = now
	if dt <= 0 {
		return
	}
	total := a.Power()
	a.totalEnergy += total * dt
	a.pendingDt += dt

	// Software attribution: the full system draw goes to whoever holds
	// the CPU, split by processor-sharing fraction. Shares change with
	// every job-set transition, so this stays per segment.
	if len(a.shares) == 0 {
		a.byPrincipal.charge(idleSlot, total*dt)
	} else {
		for i, s := range a.shares {
			a.byPrincipal.charge(a.shareSlots[i], total*dt*s.Fraction)
		}
	}
	a.checkInvariants()
}

// flushComponents books the accumulated constant-draw window into the
// per-hardware-component ledger: each component at its own draw; any
// superlinear excess goes to a pseudo-component. It must run before a
// component draw changes and before byComponent is read.
func (a *Accountant) flushComponents() {
	dt := a.pendingDt
	//odylint:allow floateq pendingDt is set to exactly 0 on flush; the guard detects "nothing accumulated", not numeric equality
	if dt == 0 {
		return
	}
	a.pendingDt = 0
	total := a.Power()
	sum := a.componentCache
	for _, s := range a.order {
		a.byComponent.charge(s, a.draw[s]*dt)
	}
	if excess := total - sum; excess > 1e-12 {
		a.byComponent.charge(a.componentSlot(superlinearComponent), excess*dt)
	}
}

// checkInvariants runs the odysseydebug cross-checks (no-op in default
// builds; see debug_on.go / debug_off.go). Debug builds flush the batched
// component ledger first so the cross-check sees a complete attribution —
// the batching optimization is effectively disabled under the tag, which
// is the point: every segment is audited.
func (a *Accountant) checkInvariants() {
	if debugAssertions {
		a.flushComponents()
		a.assertConsistent()
	}
}

// Sync forces integration up to the current instant so that the energy
// accessors reflect all elapsed time.
func (a *Accountant) Sync() {
	a.integrate()
	a.flushComponents()
}

// TotalEnergy returns joules consumed since construction (after Sync).
func (a *Accountant) TotalEnergy() float64 {
	a.integrate()
	return a.totalEnergy
}

// PrincipalEnergy returns the joules charged so far to one software
// principal (0 if it was never charged). Unlike EnergyByPrincipal it
// copies nothing.
func (a *Accountant) PrincipalEnergy(name string) float64 {
	a.integrate()
	return a.byPrincipal.energy(name)
}

// EnergyByComponent returns a copy of the per-hardware-component integrals.
// A component is listed once a flush has booked it, even with 0 J; the
// superlinear pseudo-component once its excess has exceeded 1e-12 W.
func (a *Accountant) EnergyByComponent() map[string]float64 {
	a.integrate()
	a.flushComponents()
	return a.byComponent.report()
}

// EnergyByPrincipal returns a copy of the per-software-principal integrals.
// A principal is listed once a segment has charged it, even with 0 J.
func (a *Accountant) EnergyByPrincipal() map[string]float64 {
	a.integrate()
	return a.byPrincipal.report()
}

// Principals returns the software principals charged so far, sorted by
// descending energy.
func (a *Accountant) Principals() []string {
	a.integrate()
	return a.byPrincipal.byEnergy()
}

// Shares returns the current CPU ownership snapshot (aliased; do not modify).
func (a *Accountant) Shares() []sim.Share { return a.shares }

// Checkpoint captures the total energy so intervals can be measured.
type Checkpoint struct {
	a  *Accountant
	at float64
}

// Checkpoint returns a marker for measuring energy over an interval.
func (a *Accountant) Checkpoint() Checkpoint {
	return Checkpoint{a: a, at: a.TotalEnergy()}
}

// Since returns joules consumed since the checkpoint was taken.
func (c Checkpoint) Since() float64 { return c.a.TotalEnergy() - c.at }
