//go:build !odysseydebug

// The digest is pinned on the release build only. The odysseydebug build
// flushes the power ledger on every segment to cross-check the exact
// integrator, which changes the float bits of the ledgers this digest
// hashes.

package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"regexp"
	"runtime"
	"sort"
	"testing"
)

// goldenChaosDigest pins the chaos plane's observable behaviour across
// commits: the determinism fingerprint and exact-hex ledger of Run over
// Generate(1..48), plus the sentinel report of every checked-in corpus and
// containment scenario. A refactor meant to be byte-identical must leave it
// unchanged; a change meant to shift behaviour updates it deliberately and
// says why.
const goldenChaosDigest = "7edbd6bf4791fe31b71215028098d1a380f5da3e6ff34cce2c7337749c78ba2b"

// stackFrame matches the source position line of a captured stack frame
// ("\t/any/checkout/internal/faults/planted.go:62"). The digest keeps the
// module-relative file and drops the checkout directory and the line
// number: a frame's function and file are behaviour, its source position
// is not, so moving a line must not move the pin. Reports still print
// file:line for readers.
var stackFrame = regexp.MustCompile(`(?m)^\t\S*?((?:internal|cmd)/\S*?):\d+$`)

// writeLedger renders a ledger in exact hex floats with sorted map keys.
func writeLedger(w io.Writer, led Ledger) {
	fmt.Fprintf(w, "total=%x elapsed=%v budget=%v\n", led.Total, led.Elapsed, led.BudgetErr)
	for _, m := range []map[string]float64{led.ByComponent, led.ByPrincipal} {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, " %s=%x", n, m[n])
		}
		fmt.Fprintln(w)
	}
}

// TestGoldenChaosDigest is the cross-commit referee for the chaos plane.
// The pin is amd64-only: on other architectures the compiler fuses
// multiply-add pairs into FMA instructions, so the float bits differ.
func TestGoldenChaosDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digest pinned on amd64; %s fuses multiply-add (FMA), so float bits differ", runtime.GOARCH)
	}
	h := sha256.New()
	for seed := int64(1); seed <= 48; seed++ {
		out, err := Run(Generate(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fmt.Fprintf(h, "seed %d %s\n", seed, out.Scenario.ID())
		_, _ = io.WriteString(h, fingerprint(out.Result))
		writeLedger(h, out.Ledger)
	}
	for _, dir := range []string{"testdata/corpus", "testdata/containment"} {
		scs, paths, warnings, err := LoadCorpus(dir)
		if err != nil || len(warnings) != 0 {
			t.Fatalf("%s: err=%v warnings=%v", dir, err, warnings)
		}
		for i, sc := range scs {
			out, err := Run(sc)
			if err != nil {
				t.Fatalf("%s: %v", paths[i], err)
			}
			rep := stackFrame.ReplaceAllString(out.Report.String(), "\t$1")
			fmt.Fprintf(h, "%s\n%s\n", paths[i], rep)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenChaosDigest {
		t.Errorf("chaos golden digest %s, want %s", got, goldenChaosDigest)
	}
}
