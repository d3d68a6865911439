package main

import (
	"runtime"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/core"
	"odyssey/internal/power"
	"odyssey/internal/powerscope"
	"odyssey/internal/sim"
	"odyssey/internal/smartbattery"
	"odyssey/internal/trace"
)

// Layer probes: public functions of one layer timed in isolation with
// inputs shaped like the workloads', reported per operation with the
// allocations each makes.

type probeResult struct {
	nsPerOp, allocsPerOp, bytesPerOp float64
}

// probeRounds is how many timed rounds a probe takes; it reports the
// median round.
const probeRounds = 5

// probe times op(n), which performs n operations, after one warm-up round
// of a tenth the size.
func probe(n int, op func(n int)) probeResult {
	op(n/10 + 1)
	var ns, allocs, bytes []float64
	for r := 0; r < probeRounds; r++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		op(n)
		d := time.Since(t)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d.Nanoseconds())/float64(n))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
		bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n))
	}
	return probeResult{median(ns), median(allocs), median(bytes)}
}

// componentNames are the hardware components a rig's accountant carries.
var componentNames = []string{"cpu", "disk", "display", "network", "other"}

// shareSets are CPU-ownership snapshots of the size a goal-directed run
// produces: one or two runnable principals.
var shareSets = [][]sim.Share{
	{{Principal: "xanim", Fraction: 1}},
	{{Principal: "janus", Fraction: 0.5}, {Principal: "odyssey", Fraction: 0.5}},
	{{Principal: "netscape", Fraction: 0.7}, {Principal: "X", Fraction: 0.3}},
	{{Principal: "anvil", Fraction: 1}},
}

// stepEvery runs fn(i) for i in [0, n) from kernel callbacks one
// microsecond of virtual time apart, so each call integrates a new segment.
func stepEvery(k *sim.Kernel, n int, fn func(i int)) {
	i := 0
	var step func()
	step = func() {
		fn(i)
		i++
		if i < n {
			k.After(time.Microsecond, step)
		}
	}
	k.After(0, step)
	k.Run(0)
}

var newLogSink *trace.Log

// addProbes runs every layer probe and records its metrics.
func addProbes(m *metricSet) {
	// add records a probe's time per operation as name (ns scaled to
	// unit) and its allocations per operation as allocs.
	add := func(name, allocs, unit string, scale float64, r probeResult) {
		m.add(name, r.nsPerOp*scale, unit)
		m.add(allocs, r.allocsPerOp, "count")
	}

	add("sim.event_ns", "sim.event_allocs", "ns", 1, probe(200_000, func(n int) {
		// 64 timer chains, each callback arming the next: the few dozen
		// pending timers of a goal-directed run, at delays from a
		// microsecond to past the calendar wheel's horizon.
		k := sim.NewKernel(1)
		left := n
		var fire func()
		fire = func() {
			if left--; left >= 0 {
				k.After(time.Duration(1+left%997*left%613)*time.Millisecond/4, fire)
			}
		}
		for i := 0; i < 64; i++ {
			fire()
		}
		k.Run(0)
	}))
	add("sim.switch_ns", "sim.switch_allocs", "ns", 1, probe(100_000, func(n int) {
		k := sim.NewKernel(1)
		k.Spawn("probe", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		k.Run(0)
	}))
	add("sim.ps_ns", "sim.ps_allocs", "ns", 1, probe(100_000, func(n int) {
		// Four concurrent jobs, each completion starting the next: the
		// handful of runnable principals a rig's CPU shares.
		k := sim.NewKernel(1)
		r := sim.NewPSResource(k, "cpu", 1000)
		left := n
		var next func()
		next = func() {
			if left <= 0 {
				return
			}
			left--
			r.UseAsync(shareSets[left%4][0].Principal, 0.5+float64(left%7), next)
		}
		for i := 0; i < 4; i++ {
			next()
		}
		k.Run(0)
	}))

	add("power.set_component_ns", "power.set_component_allocs", "ns", 1, probe(200_000, func(n int) {
		k := sim.NewKernel(1)
		a := power.NewAccountant(k)
		for _, c := range componentNames {
			a.SetComponent(c, 1)
		}
		a.SetShares(shareSets[0])
		watts := [...]float64{0.5, 1.5, 2.5}
		stepEvery(k, n, func(i int) { a.SetComponent(componentNames[i%len(componentNames)], watts[i%3]) })
	}))
	add("power.set_shares_ns", "power.set_shares_allocs", "ns", 1, probe(200_000, func(n int) {
		k := sim.NewKernel(1)
		a := power.NewAccountant(k)
		for _, c := range componentNames {
			a.SetComponent(c, 1)
		}
		stepEvery(k, n, func(i int) { a.SetShares(shareSets[i%len(shareSets)]) })
	}))
	{
		k := sim.NewKernel(1)
		a := power.NewAccountant(k)
		for _, c := range componentNames {
			a.SetComponent(c, 1)
		}
		stepEvery(k, 64, func(i int) { a.SetShares(shareSets[i%len(shareSets)]) })
		add("power.by_principal_us", "power.by_principal_allocs", "us", 1e-3, probe(20_000, func(n int) {
			for i := 0; i < n; i++ {
				_ = a.EnergyByPrincipal()
			}
		}))
	}

	// Per simulated second of an otherwise idle rig.
	add("core.monitor_us_per_sim_s", "core.monitor_allocs_per_sim_s", "us", 1e-3, probe(3600, func(n int) {
		rig := env.NewRig(1, 1)
		rig.EnablePowerMgmt()
		supply := power.NewSupply(rig.M.Acct, 1e7)
		em := core.NewEnergyMonitor(rig.V, rig.M.Acct, supply, core.DefaultEnergyConfig())
		em.SetGoal(2 * time.Duration(n) * time.Second)
		em.Start()
		rig.K.Run(time.Duration(n) * time.Second)
		rig.K.Shutdown()
	}))
	add("smartbattery.us_per_sim_s", "smartbattery.allocs_per_sim_s", "us", 1e-3, probe(3600, func(n int) {
		// Readings at the energy monitor's sample period.
		rig := env.NewRig(1, 1)
		rig.EnablePowerMgmt()
		bat := smartbattery.New(rig.K, rig.M.Acct, smartbattery.DefaultConfig(), 1e7)
		bat.SetPolling(true)
		rig.K.Every(core.DefaultEnergyConfig().SamplePeriod, func() {
			_ = bat.Power()
			_ = bat.RemainingCapacity()
		}).Start()
		rig.K.Run(time.Duration(n) * time.Second)
		rig.K.Shutdown()
	}))

	add("netsim.bulk_us", "netsim.bulk_allocs", "us", 1e-3, probe(2000, func(n int) {
		rig := env.NewRig(1, 1)
		rig.EnablePowerMgmt()
		rig.K.Spawn("bulk", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				rig.Net.BulkTransfer(p, "probe", 64<<10)
			}
		})
		rig.K.Run(0)
		rig.K.Shutdown()
	}))
	rig := probe(500, func(n int) {
		for i := 0; i < n; i++ {
			_ = env.NewRig(int64(i), 1)
		}
	})
	add("env.new_rig_us", "env.new_rig_allocs", "us", 1e-3, rig)
	m.add("env.new_rig_bytes", rig.bytesPerOp, "B")

	add("powerscope.sample_ns", "powerscope.sample_allocs", "ns", 1, probe(100_000, func(n int) {
		rig := env.NewRig(1, 1)
		period := 1666 * time.Microsecond
		pf := powerscope.NewProfiler(rig.K, rig.M.Acct, period, 0)
		pf.Start()
		rig.K.At(time.Duration(n)*period+time.Millisecond, rig.K.Stop)
		rig.K.Run(0)
		pf.Stop()
		rig.K.Shutdown()
	}))

	nl := probe(64, func(n int) {
		now := func() time.Duration { return 0 }
		for i := 0; i < n; i++ {
			newLogSink = trace.NewLog(now, 0)
		}
	})
	newLogSink = nil
	add("trace.newlog_us", "trace.newlog_allocs", "us", 1e-3, nl)
	m.add("trace.newlog_bytes", nl.bytesPerOp, "B")
}
