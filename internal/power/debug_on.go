//go:build odysseydebug

package power

// debugAssertions reports whether the odysseydebug runtime invariant
// checks are compiled in.
const debugAssertions = true

// assertConsistent cross-checks the exact integrator against both
// attribution ledgers after every integration step, via the same check
// AuditConservation and the chaos sentinels run post-run (audit.go). A
// divergence means energy was created or destroyed by an accounting bug -
// precisely the silent corruption the paper's methodology cannot tolerate -
// so under the debug tag the simulation stops immediately rather than
// producing a plausible-looking figure.
func (a *Accountant) assertConsistent() {
	if err := a.conservation(); err != nil {
		//odylint:allow panicfree debug-only invariant: continuing would publish corrupt energy figures
		panic(err.Error())
	}
}
