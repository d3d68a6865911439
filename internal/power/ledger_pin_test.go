package power

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"odyssey/internal/sim"
)

// TestLedgerPin replays one scripted accountant session and compares every
// reported figure bit for bit, together with the exact key sets, against
// values pinned from a reference build. It guards the ledger's internal
// representation: any change to the order in which joules are added, or to
// when a component or principal first becomes visible, changes this output.
//
// The script covers a component added mid-run, a component set to 0
// before any flush, a superlinear excess that starts at exactly 0 and
// later crosses 1e-12 after a stretch where it is nonzero but below it,
// idle gaps, a zero-fraction share, a duplicated principal within one
// snapshot, a snapshot replaced at the same instant (never charged), and
// two pairs of principals with equal energy (Principals breaks the tie by
// name).
func TestLedgerPin(t *testing.T) {
	k := sim.NewKernel(1)
	a := NewAccountant(k)
	a.Superlinear = func(sum float64) float64 {
		excess := sum - 3.2
		if excess < 0 {
			excess = 0
		}
		return sum + 0.0305*excess
	}
	a.SetComponent("other", 3.2)
	a.SetComponent("disk", 0) // zero before any flush: listed from the first flush on
	a.SetShares([]sim.Share{{Principal: "ghost", Fraction: 1}})
	a.SetShares([]sim.Share{{Principal: "alpha", Fraction: 0.5}, {Principal: "beta", Fraction: 0.5}})

	var got []string
	snap := func() {
		got = append(got, ledgerSnapshot(k.Now(), a))
	}
	at := func(ms int, f func()) { k.At(time.Duration(ms)*time.Millisecond, f) }

	at(1300, snap) // only "other" drew: no superlinear key yet, no Idle
	at(1500, func() { a.SetComponent("sensor", 1e-11) })
	at(1650, snap) // excess is nonzero but below 1e-12 W: still no superlinear key
	at(1700, func() { a.SetComponent("display", 2.13) })
	at(2100, func() { a.SetShares(nil) }) // idle gap
	at(2900, func() {
		a.SetShares([]sim.Share{
			{Principal: "alpha", Fraction: 1.0 / 3},
			{Principal: "zero", Fraction: 0},
			{Principal: "gamma", Fraction: 1.0 / 3},
			{Principal: "gamma", Fraction: 1.0 / 3},
		})
	})
	at(3300, func() { a.SetComponent("network", 1.41) }) // added mid-run
	at(3700, snap)
	at(4100, func() { a.SetComponent("disk", 0.95) })
	at(4600, func() { a.SetShares(nil) })
	at(5200, func() { a.SetComponent("display", 0.3) })
	at(5900, func() {
		a.SetShares([]sim.Share{{Principal: "beta", Fraction: 0.25}, {Principal: "alpha", Fraction: 0.75}})
	})
	at(6300, func() { a.SetComponent("network", 0) })
	at(7100, func() {
		a.SetShares([]sim.Share{{Principal: "epsilon", Fraction: 0.5}, {Principal: "delta", Fraction: 0.5}})
	})
	at(7500, func() { a.SetShares(nil) })
	at(8000, snap)
	at(9000, func() {}) // a trailing idle second no call has integrated yet
	k.Run(0)
	snap()

	want := []string{
		"t=1.3s total=0x4010a3d70a3d70a4 comp{disk=0x0 other=0x4010a3d70a3d70a4} prin{alpha=0x4000a3d70a3d70a4 beta=0x4000a3d70a3d70a4} order[alpha beta]",
		"t=1.65s total=0x40151eb851eb8bec comp{disk=0x0 other=0x40151eb851eb8520 sensor=0x3d7a636641c4df19} prin{alpha=0x40051eb851eb8bec beta=0x40051eb851eb8bec} order[alpha beta]",
		"t=3.7s total=0x4030cfa658c4d622 comp{disk=0x0 display=0x40110a3d70a3d70a network=0x3fe20c49ba5e353f other=0x4027ae147ae147b0 sensor=0x3db83073119f21d7 superlinear=0x3fc2d538ac194de7} prin{Idle=0x4011438e29f9f2cf alpha=0x4015b9bcd08ecb47 beta=0x400e64567125f83c gamma=0x400a1e465fef3ca3 zero=0x0} order[alpha Idle beta gamma zero]",
		"t=8s total=0x4045299a176dffa2 comp{disk=0x400da3d70a3d70a4 display=0x4020970a3d70a3d7 network=0x4010eb851eb851eb other=0x403999999999999b sensor=0x3dd1ddf7e732a1ba superlinear=0x3fdfae536502697e} prin{Idle=0x402ed479e59f6694 alpha=0x40283f90d43ff774 beta=0x401529b56323d6f9 delta=0x3fecb95810629657 epsilon=0x3fecb95810629657 gamma=0x401eccafe074c471 zero=0x0} order[Idle alpha gamma beta delta epsilon zero]",
		"t=9s total=0x40476814f8b5b361 comp{disk=0x40129eb851eb851f display=0x402130a3d70a3d71 network=0x4010eb851eb851eb other=0x403cccccccccccce sensor=0x3dd49da7e361ce4d superlinear=0x3fe10f7b9e065e2f} prin{Idle=0x4033e732b55f1ac8 alpha=0x40283f90d43ff774 beta=0x401529b56323d6f9 delta=0x3fecb95810629657 epsilon=0x3fecb95810629657 gamma=0x401eccafe074c471 zero=0x0} order[Idle alpha gamma beta delta epsilon zero]",
	}
	if debugAssertions {
		// The odysseydebug build flushes the component ledger on every
		// segment, so the later component integrals round differently.
		want[3] = "t=8s total=0x4045299a176dffa2 comp{disk=0x400da3d70a3d70a3 display=0x4020970a3d70a3d6 network=0x4010eb851eb851eb other=0x403999999999999c sensor=0x3dd1ddf7e732a1b9 superlinear=0x3fdfae536502697c} prin{Idle=0x402ed479e59f6694 alpha=0x40283f90d43ff774 beta=0x401529b56323d6f9 delta=0x3fecb95810629657 epsilon=0x3fecb95810629657 gamma=0x401eccafe074c471 zero=0x0} order[Idle alpha gamma beta delta epsilon zero]"
		want[4] = "t=9s total=0x40476814f8b5b361 comp{disk=0x40129eb851eb851e display=0x402130a3d70a3d70 network=0x4010eb851eb851eb other=0x403ccccccccccccf sensor=0x3dd49da7e361ce4c superlinear=0x3fe10f7b9e065e2e} prin{Idle=0x4033e732b55f1ac8 alpha=0x40283f90d43ff774 beta=0x401529b56323d6f9 delta=0x3fecb95810629657 epsilon=0x3fecb95810629657 gamma=0x401eccafe074c471 zero=0x0} order[Idle alpha gamma beta delta epsilon zero]"
	}
	if len(got) != len(want) {
		t.Fatalf("%d snapshots, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("snapshot %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	if err := a.AuditConservation(); err != nil {
		t.Fatal(err)
	}
}

// ledgerSnapshot renders every reporting accessor's output with exact bit
// patterns and sorted keys.
func ledgerSnapshot(now time.Duration, a *Accountant) string {
	bits := func(m map[string]float64) string {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%#x", k, math.Float64bits(m[k]))
		}
		return strings.Join(parts, " ")
	}
	return fmt.Sprintf("t=%v total=%#x comp{%s} prin{%s} order%v",
		now, math.Float64bits(a.TotalEnergy()), bits(a.EnergyByComponent()), bits(a.EnergyByPrincipal()), a.Principals())
}
