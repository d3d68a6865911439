package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// goldenFleetDigest pins the fleet plane's observable behaviour across
// commits: the aggregate fingerprint and full scorecard of the default
// population at seed 7, 256 devices, 8 shards. A refactor meant to be
// byte-identical must leave it unchanged.
const goldenFleetDigest = "e7779f9476f82e2175daade0fe63a175ed7ac4eca44398e28762b86eb8dfb4b1"

// TestGoldenFleetDigest is the cross-commit referee for the fleet plane.
// The pin is amd64-only: on other architectures the compiler fuses
// multiply-add pairs into FMA instructions, so the float bits differ.
func TestGoldenFleetDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digest pinned on amd64; %s fuses multiply-add (FMA), so float bits differ", runtime.GOARCH)
	}
	res, err := Run(RunOptions{Population: DefaultPopulation(), Seed: 7, Devices: 256, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(res.Agg.Fingerprint() + res.ScorecardString(true)))
	if got := hex.EncodeToString(sum[:]); got != goldenFleetDigest {
		t.Errorf("fleet golden digest %s, want %s", got, goldenFleetDigest)
	}
}
