package faults_test

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"odyssey/internal/core"
	"odyssey/internal/faults"
	"odyssey/internal/netsim"
	"odyssey/internal/sim"
	"odyssey/internal/smartbattery"
	"odyssey/internal/supervise"
)

// stubApp is a minimal core.Adaptive for binding app injectors in tests.
type stubApp struct {
	name   string
	level  int
	health supervise.AppHealth
}

func (s *stubApp) Name() string     { return s.name }
func (s *stubApp) Levels() []string { return []string{"lo", "mid", "hi"} }
func (s *stubApp) Level() int       { return s.level }
func (s *stubApp) SetLevel(l int)   { s.level = l }

// stubTargets resolves spec targets against a fixed rig for tests.
type stubTargets struct {
	net     *netsim.Network
	servers map[string]*netsim.Server
	bat     *smartbattery.Battery
	apps    map[string]*stubApp
}

func (t *stubTargets) Network() *netsim.Network { return t.net }
func (t *stubTargets) Server(name string) (*netsim.Server, bool) {
	s, ok := t.servers[name]
	return s, ok
}
func (t *stubTargets) Battery() *smartbattery.Battery { return t.bat }
func (t *stubTargets) App(name string) (core.Adaptive, *supervise.AppHealth, bool) {
	a, ok := t.apps[name]
	if !ok {
		return nil, nil, false
	}
	return a, &a.health, true
}

func newSpecRig(seed int64) (*sim.Kernel, *stubTargets) {
	m, n := newRig(seed)
	srv := netsim.NewServer(m.K, "srv-a")
	bat := smartbattery.New(m.K, m.Acct, smartbattery.DefaultConfig(), 10_000)
	return m.K, &stubTargets{
		net:     n,
		servers: map[string]*netsim.Server{"srv-a": srv},
		bat:     bat,
		apps:    map[string]*stubApp{"video": {name: "video"}},
	}
}

// allKindsSpec exercises every injector kind with every parameter field.
func allKindsSpec() faults.PlanSpec {
	return faults.PlanSpec{
		Name: "round-trip",
		Seed: 987,
		Injectors: []faults.InjectorSpec{
			{Kind: faults.KindLink, MeanUp: faults.Dur(30 * time.Second), MeanDown: faults.Dur(5 * time.Second), MaxDown: faults.Dur(20 * time.Second)},
			{Kind: faults.KindLoss, Fraction: 0.2, Spread: 0.1},
			{Kind: faults.KindServerCrash, Target: "srv-a", MeanUp: faults.Dur(time.Minute), MeanDown: faults.Dur(8 * time.Second), MaxDown: faults.Dur(45 * time.Second)},
			{Kind: faults.KindServerLatency, Target: "srv-a", MeanUp: faults.Dur(40 * time.Second), MeanDown: faults.Dur(10 * time.Second), Factor: 4.5},
			{Kind: faults.KindBatteryDropout, MeanUp: faults.Dur(90 * time.Second), MeanDown: faults.Dur(2 * time.Second)},
			{Kind: faults.KindAppCrash, Target: "video", MeanUp: faults.Dur(2 * time.Minute)},
			{Kind: faults.KindAppHang, Target: "video", MeanUp: faults.Dur(80 * time.Second), MeanDown: faults.Dur(10 * time.Second), MaxDown: faults.Dur(time.Minute)},
			{Kind: faults.KindAppThrash, Target: "video", MeanUp: faults.Dur(80 * time.Second), MeanDown: faults.Dur(20 * time.Second), Period: faults.Dur(3 * time.Second)},
			{Kind: faults.KindAppLie, Target: "video", MeanUp: faults.Dur(80 * time.Second), MeanDown: faults.Dur(30 * time.Second), Delta: 2},
		},
	}
}

// TestPlanSpecJSONRoundTrip: spec -> JSON -> spec is the identity for
// every injector kind and every parameter field, and re-encoding the
// decoded spec gives the same bytes.
func TestPlanSpecJSONRoundTrip(t *testing.T) {
	spec := allKindsSpec()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded faults.PlanSpec
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(decoded, spec) {
		t.Fatalf("decoded spec diverged:\n got %+v\nwant %+v", decoded, spec)
	}
	b2, err := json.Marshal(decoded)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if string(b) != string(b2) {
		t.Fatalf("unstable serialization:\n %s\n %s", b, b2)
	}
}

// TestInjectorSpecBuild: Build maps every spec field onto the injector its
// kind names, bound to the resolved targets. The field names differ by
// kind (a latency spec's MeanUp is the injector's MeanCalm), so each kind
// is compared against a literal.
func TestInjectorSpecBuild(t *testing.T) {
	_, tg := newPoolRig(1, 2)
	srv, video := tg.servers["srv-a"], tg.apps["video"]
	specs := allKindsSpec().Injectors
	cases := []struct {
		spec faults.InjectorSpec
		want faults.Injector
	}{
		{specs[0], &faults.LinkOutage{Net: tg.net, MeanUp: 30 * time.Second, MeanDown: 5 * time.Second, MaxDown: 20 * time.Second}},
		{specs[1], &faults.ByteLoss{Net: tg.net, Fraction: 0.2, Spread: 0.1}},
		{specs[2], &faults.ServerCrash{Server: srv, Net: tg.net, MeanUp: time.Minute, MeanDown: 8 * time.Second, MaxDown: 45 * time.Second}},
		{specs[3], &faults.ServerLatency{Server: srv, Net: tg.net, MeanCalm: 40 * time.Second, MeanSpike: 10 * time.Second, Factor: 4.5}},
		{specs[4], &faults.BatteryDropout{Bat: tg.bat, MeanUp: 90 * time.Second, MeanDown: 2 * time.Second}},
		{specs[5], &faults.AppCrash{App: video, Health: &video.health, MeanUp: 2 * time.Minute}},
		{specs[6], &faults.AppHang{App: video, Health: &video.health, MeanOK: 80 * time.Second, MeanHang: 10 * time.Second, MaxHang: time.Minute}},
		{specs[7], &faults.AppThrash{App: video, Health: &video.health, MeanCalm: 80 * time.Second, MeanThrash: 20 * time.Second, Period: 3 * time.Second}},
		{specs[8], &faults.AppLie{App: video, Health: &video.health, MeanOK: 80 * time.Second, MeanLie: 30 * time.Second, Delta: 2}},
		{
			faults.InjectorSpec{Kind: faults.KindServerCrash, Target: faults.TargetAnyPool, MeanUp: faults.Dur(time.Minute), MeanDown: faults.Dur(time.Second), MaxDown: faults.Dur(9 * time.Second)},
			&faults.ServerCrash{Pool: tg.pool, Net: tg.net, MeanUp: time.Minute, MeanDown: time.Second, MaxDown: 9 * time.Second},
		},
		{
			faults.InjectorSpec{Kind: faults.KindServerLatency, Target: faults.TargetAnyPool, MeanUp: faults.Dur(time.Minute), MeanDown: faults.Dur(time.Second), Factor: 2},
			&faults.ServerLatency{Pool: tg.pool, Net: tg.net, MeanCalm: time.Minute, MeanSpike: time.Second, Factor: 2},
		},
		{faults.InjectorSpec{Kind: faults.KindTestPanic, MeanUp: faults.Dur(time.Second)}, &faults.TestPanic{Delay: time.Second}},
		{faults.InjectorSpec{Kind: faults.KindTestProcPanic, MeanUp: faults.Dur(2 * time.Second)}, &faults.TestProcPanic{Delay: 2 * time.Second}},
		{faults.InjectorSpec{Kind: faults.KindTestLivelock, MeanUp: faults.Dur(3 * time.Second)}, &faults.TestLivelock{Delay: 3 * time.Second}},
	}
	if len(specs) != 9 {
		t.Fatalf("allKindsSpec has %d injectors; extend this table", len(specs))
	}
	for _, c := range cases {
		got, err := c.spec.Build(tg)
		if err != nil {
			t.Fatalf("Build(%+v): %v", c.spec, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Build(%+v):\n got %+v\nwant %+v", c.spec, got, c.want)
		}
	}
}

// TestDurRoundTrip: the Dur JSON form survives odd durations exactly.
func TestDurRoundTrip(t *testing.T) {
	for _, d := range []time.Duration{0, time.Millisecond, 1500 * time.Millisecond,
		time.Duration(4749_000_001), 90 * time.Second, 2*time.Hour + 3*time.Nanosecond} {
		b, err := json.Marshal(faults.Dur(d))
		if err != nil {
			t.Fatal(err)
		}
		var got faults.Dur
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if got.D() != d {
			t.Fatalf("%v -> %s -> %v", d, b, got.D())
		}
	}
	var bad faults.Dur
	if err := json.Unmarshal([]byte(`"not-a-duration"`), &bad); err == nil {
		t.Fatal("bad duration string decoded without error")
	}
}

// TestSpecBuildErrors: unknown kinds and unresolvable targets are errors,
// never panics — a malformed spec must fail one trial, not a soak worker.
func TestSpecBuildErrors(t *testing.T) {
	k, tg := newSpecRig(3)
	cases := []faults.InjectorSpec{
		{Kind: "warp-core-breach"},
		{Kind: faults.KindServerCrash, Target: "no-such-server"},
		{Kind: faults.KindServerLatency, Target: "no-such-server"},
		{Kind: faults.KindAppCrash, Target: "no-such-app"},
		{Kind: faults.KindAppLie, Target: "no-such-app"},
	}
	for _, is := range cases {
		if _, err := is.Build(tg); err == nil {
			t.Errorf("Build(%+v) succeeded; want error", is)
		}
		spec := faults.PlanSpec{Name: "bad", Seed: 1, Injectors: []faults.InjectorSpec{is}}
		if _, err := spec.Plan(k, tg); err == nil {
			t.Errorf("PlanSpec with %+v materialized; want error", is)
		}
	}
	// Battery-dropout without a battery is an error too.
	noBat := &stubTargets{net: tg.net, servers: tg.servers, apps: tg.apps}
	if _, err := (faults.InjectorSpec{Kind: faults.KindBatteryDropout}).Build(noBat); err == nil {
		t.Error("battery-dropout built without a battery")
	}
}

// TestSpecReplayDeterminism: a plan rebuilt from its JSON on a fresh rig
// draws the identical fault schedule — same event counts at every key.
func TestSpecReplayDeterminism(t *testing.T) {
	run := func(spec faults.PlanSpec) map[string]int {
		k, tg := newSpecRig(7)
		pl, err := spec.Plan(k, tg)
		if err != nil {
			t.Fatalf("materialize: %v", err)
		}
		pl.Start()
		k.At(8*time.Minute, func() { k.Stop() })
		k.Run(0)
		pl.Stop()
		_, counts := pl.Counts()
		return counts
	}
	spec := allKindsSpec()
	first := run(spec)
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var decoded faults.PlanSpec
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	second := run(decoded)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("replayed plan diverged:\n got %v\nwant %v", second, first)
	}
	if len(first) == 0 {
		t.Fatal("no fault events in 8 minutes; schedule not exercising injectors")
	}
}
