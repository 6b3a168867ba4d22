package main

import (
	"runtime"
	"time"

	"aomplib"
	"aomplib/parallel"
)

// Layer probes: short warm loops timing one public call each, with no
// tool installed, after the workload has finished. Each probe reports the
// median over probeReps timed loops.
const probeReps = 7

// timeLoop runs f n times per rep and returns the median ns per call.
func timeLoop(n int, f func()) value {
	f() // warm
	per := make([]float64, probeReps)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return fromSummary(summarize(per), 1)
}

// weaveKernelShape builds and weaves a program shaped like a JGF Aomp
// kernel: a region, a work-shared loop, a master section and barriers.
func weaveKernelShape(threads int) func() {
	p := aomplib.NewProgram("Probe")
	c := p.Class("Probe")
	loop := c.ForProc("loop", func(lo, hi, step int) {})
	master := c.Proc("master", func() {})
	run := c.Proc("run", func() {
		loop(0, 64, 1)
		master()
	})
	p.Use(aomplib.ParallelRegion("call(* Probe.run(..))").Threads(threads))
	p.Use(aomplib.ForShare("call(* Probe.loop(..))"))
	p.Use(aomplib.MasterSection("call(* Probe.master(..))"))
	p.Use(aomplib.BarrierAfterPoint("call(* Probe.loop(..)) || call(* Probe.master(..))"))
	p.MustWeave()
	return run
}

// probes fills weaver.*, rt.region_entry_ns, rt.tenant_enter_exit_ns,
// gls.lookup_ns, parallel.for_dispatch_ns and rt.idle_cpu_ms.
func probes(layer map[string]value, threads int) {
	weaves := make([]float64, 15)
	for i := range weaves {
		t0 := time.Now()
		weaveKernelShape(threads)
		weaves[i] = time.Since(t0).Seconds() * 1e3
	}
	layer["weaver.weave_ms"] = fromSummary(summarize(weaves), 1)

	p := aomplib.NewProgram("Probe")
	c := p.Class("Probe")
	sink := 0
	call := c.Proc("call", func() { sink++ })
	region := c.Proc("region", func() {})
	const lookups = 200_000
	var lookupNs []float64
	lookup := c.Proc("lookup", func() {
		t0 := time.Now()
		s := 0
		for i := 0; i < lookups; i++ {
			s += aomplib.ThreadID()
		}
		if aomplib.ThreadID() == 0 {
			lookupNs = append(lookupNs, float64(time.Since(t0).Nanoseconds())/lookups)
		}
		sinkInt(s)
	})
	p.Use(aomplib.Around("Pass", "call(* Probe.call(..))", 50, false,
		func(c *aomplib.Call, proceed func(*aomplib.Call)) { proceed(c) }))
	p.Use(aomplib.ParallelRegion("call(* Probe.region(..)) || call(* Probe.lookup(..))").Threads(threads))
	p.MustWeave()

	layer["weaver.call_ns"] = timeLoop(200_000, call)
	layer["rt.region_entry_ns"] = timeLoop(5_000, region)
	layer["rt.tenant_enter_exit_ns"] = timeLoop(50_000, func() { aomplib.EnterTenant("probe").Exit() })
	layer["parallel.for_dispatch_ns"] = timeLoop(5_000, func() { parallel.For(0, threads, func(int) {}) })
	for r := 0; r <= probeReps; r++ {
		lookup()
	}
	layer["gls.lookup_ns"] = fromSummary(summarize(lookupNs[1:]), 1)
	sinkInt(sink)

	// Idle window: process CPU over a fixed sleep that starts right after
	// a region joined, so post-region spinning before workers park counts.
	runtime.GC()
	region()
	const idle = 500 * time.Millisecond
	c0 := cpuTime()
	time.Sleep(idle)
	layer["rt.idle_cpu_ms"] = single(float64((cpuTime()-c0).Microseconds())/1e3, 1)
}

var sinkVal int

// sinkInt keeps a probe's result alive so its loop is not optimised away.
func sinkInt(v int) { sinkVal += v }
