package web

import (
	"testing"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/hw"
	"odyssey/internal/odfs"
	"odyssey/internal/sim"
)

func fetchOnce(seed int64, img Image, q Quality, think time.Duration, mgmt bool) (energy float64, dur time.Duration) {
	rig := env.NewRig(seed, 1)
	if mgmt {
		rig.EnablePowerMgmt()
	}
	rig.K.Spawn("w", func(p *sim.Proc) {
		cp := rig.M.Acct.Checkpoint()
		start := p.Now()
		Fetch(rig, p, img, q, think)
		energy = cp.Since()
		dur = p.Now() - start
	})
	rig.K.Run(0)
	return energy, dur
}

func TestDeliveredBytesMonotone(t *testing.T) {
	img := StandardImages()[3]
	prev := -1.0
	for _, q := range []Quality{JPEG5, JPEG25, JPEG50, JPEG75, FullFidelity} {
		b := DeliveredBytes(img, q)
		if b <= prev {
			t.Fatalf("%v delivered %v bytes, not above %v", q, b, prev)
		}
		prev = b
	}
}

func TestDeliveredBytesFloorAndCap(t *testing.T) {
	tiny := Image{Name: "t", GIFBytes: 110}
	if got := DeliveredBytes(tiny, JPEG5); got != 110 {
		t.Fatalf("tiny image delivered %v bytes, want floor=original 110", got)
	}
	small := Image{Name: "s", GIFBytes: 500}
	if got := DeliveredBytes(small, JPEG5); got != minImageBytes {
		t.Fatalf("small image delivered %v, want floor %v", got, minImageBytes)
	}
}

func TestQualityEnergyOrderingLargeImage(t *testing.T) {
	img := StandardImages()[3] // 175 KB
	prev := -1.0
	for _, q := range []Quality{FullFidelity, JPEG75, JPEG50, JPEG25, JPEG5} {
		e, _ := fetchOnce(2, img, q, 5*time.Second, true)
		if prev >= 0 && e >= prev {
			t.Fatalf("%v energy %.1f not below %.1f", q, e, prev)
		}
		prev = e
	}
}

func TestTinyImageFidelityInsensitive(t *testing.T) {
	img := StandardImages()[0] // 110 B
	full, _ := fetchOnce(3, img, FullFidelity, 5*time.Second, true)
	low, _ := fetchOnce(3, img, JPEG5, 5*time.Second, true)
	diff := (full - low) / full
	if diff < -0.1 || diff > 0.1 {
		t.Fatalf("110-byte image fidelity changed energy by %.0f%%", diff*100)
	}
}

func TestPowerMgmtSavings(t *testing.T) {
	img := StandardImages()[3]
	base, _ := fetchOnce(4, img, FullFidelity, 5*time.Second, false)
	managed, _ := fetchOnce(4, img, FullFidelity, 5*time.Second, true)
	savings := 1 - managed/base
	// Most of the savings occur in the idle state (think time): disk and
	// NIC standby.
	if savings < 0.08 || savings > 0.30 {
		t.Fatalf("hw-only savings %.0f%% outside plausible band", savings*100)
	}
}

func TestThinkTimeDominatesSmallImages(t *testing.T) {
	img := StandardImages()[0]
	short, _ := fetchOnce(5, img, FullFidelity, 0, true)
	long, _ := fetchOnce(5, img, FullFidelity, 20*time.Second, true)
	if long < 3*short {
		t.Fatalf("20 s think (%f J) not dominating 0 s (%f J)", long, short)
	}
}

func TestDistillationServerPaysTranscodeTime(t *testing.T) {
	img := StandardImages()[3]
	_, durFull := fetchOnce(6, img, FullFidelity, 0, true)
	_, durLow := fetchOnce(6, img, JPEG5, 0, true)
	// JPEG-5 transcodes (server time up) but ships far fewer bytes
	// (transfer time down); for a 175 KB image the byte savings win.
	if durLow >= durFull {
		t.Fatalf("JPEG-5 fetch (%v) not faster than full (%v) for a large image", durLow, durFull)
	}
}

func TestBrowserAdaptive(t *testing.T) {
	rig := env.NewRig(1, 1)
	b := NewBrowser(rig)
	if b.Name() != "web" || len(b.Levels()) != 5 {
		t.Fatalf("browser identity wrong: %q %v", b.Name(), b.Levels())
	}
	var levels []string
	if allocs := testing.AllocsPerRun(100, func() { levels = b.Levels() }); allocs != 0 || len(levels) != 5 {
		t.Fatalf("Levels made %v allocations per call", allocs)
	}
	if b.Quality() != FullFidelity {
		t.Fatal("browser does not start at full fidelity")
	}
	b.SetLevel(0)
	if b.Quality() != JPEG5 {
		t.Fatal("lowest level is not JPEG-5")
	}
	b.SetLevel(-1)
	if b.Level() != 0 {
		t.Fatal("clamp low failed")
	}
	b.SetLevel(50)
	if b.Level() != 4 {
		t.Fatal("clamp high failed")
	}
}

func TestNetscapeNearFullScreenUnderZones(t *testing.T) {
	rig := env.NewRig(7, 4)
	rig.ZonedPolicy = true
	rig.EnablePowerMgmt()
	img := StandardImages()[1]
	rig.K.Spawn("w", func(p *sim.Proc) {
		Fetch(rig, p, img, FullFidelity, time.Second)
	})
	rig.K.Run(0)
	// Netscape covers ~95% of the panel: all four zones lit.
	if got := rig.M.Display.Power(); got < hw.ThinkPad560X().DisplayBright-1e-9 {
		t.Fatalf("browser display power %v; expected full brightness (all zones)", got)
	}
}

func TestWardenQuality(t *testing.T) {
	var w Warden
	if w.TypeName() != "web" {
		t.Fatalf("warden type %q", w.TypeName())
	}
	if w.QualityFor(0) != JPEG5 || w.QualityFor(4) != FullFidelity || w.QualityFor(99) != FullFidelity {
		t.Fatal("warden quality mapping wrong")
	}
}

func TestQualityString(t *testing.T) {
	for q, want := range map[Quality]string{
		JPEG5: "JPEG-5", JPEG25: "JPEG-25", JPEG50: "JPEG-50",
		JPEG75: "JPEG-75", FullFidelity: "full-fidelity",
	} {
		if q.String() != want {
			t.Fatalf("%d renders %q, want %q", int(q), q.String(), want)
		}
	}
}

func TestWardenTSOp(t *testing.T) {
	rig := env.NewRig(9, 1)
	rig.EnablePowerMgmt()
	b := NewBrowser(rig)
	img := StandardImages()[2]
	obj := &odfs.Object{Path: "/i", Type: "web", Data: img}
	rig.K.Spawn("u", func(p *sim.Proc) {
		res, err := b.Warden.TSOp(p, obj, "fetch", 0, FetchArgs{Think: time.Second})
		if err != nil {
			t.Errorf("fetch tsop: %v", err)
			return
		}
		if res.(float64) >= img.GIFBytes {
			t.Errorf("JPEG-5 delivered %v of %v bytes", res, img.GIFBytes)
		}
		if _, err := b.Warden.TSOp(p, obj, "post", 0, nil); err == nil {
			t.Error("unknown op accepted")
		}
		bad := &odfs.Object{Path: "/b", Type: "web", Data: "nope"}
		if _, err := b.Warden.TSOp(p, bad, "fetch", 0, nil); err == nil {
			t.Error("non-Image payload accepted")
		}
	})
	rig.K.Run(0)
}
