package main

import (
	"fmt"
	"time"

	"faulthound/internal/campaign"
	"faulthound/internal/detect"
	"faulthound/internal/fault"
	"faulthound/internal/pipeline"
	"faulthound/internal/prog"
	"faulthound/internal/scheme"
	"faulthound/internal/workload"
)

// Probe sizes. Each is large enough that one sample takes well over a
// millisecond on a 2 GHz host, so timer resolution does not matter.
const (
	probeCheckCycles = 20000 // cycles whose detector events are recorded and replayed
	probeSnapshots   = 21    // Snapshot calls per core; the first (allocating) one is dropped
)

// layerProbe accumulates the per-layer metrics every workload reports:
// the pipeline, detector (core), memory-hierarchy, interpreter (prog)
// and harness layers, each timed by the benchmark around calls to the
// layer's public functions.
type layerProbe struct {
	buildS []float64 // harness.Options.BuildCoreSpec durations

	cycles uint64  // cycles simulated inside timed Run/RunUntilCommits calls
	runS   float64 // seconds inside those calls

	snapS []float64 // Core.Snapshot durations

	checks      int     // detector events replayed through OnComplete
	checkS      float64 // seconds of replay
	checkInstr  uint64  // instructions committed while the replayed events were recorded
	l1d, l2     uint64  // L1D and L2 misses of the measured cores
	instr       uint64  // instructions those cores committed
	interpInstr uint64  // instructions the sequential interpreter stepped
	interpS     float64 // seconds it took

	interpDone map[string]bool
}

// core records a finished core's memory-hierarchy counters.
func (p *layerProbe) core(c *pipeline.Core) {
	ms := c.MemStats()
	p.l1d += ms.L1DMisses
	p.l2 += ms.L2Misses
	p.instr += c.CommittedTotal()
}

// snapshots times Core.Snapshot into a fresh arena.
func (p *layerProbe) snapshots(tr *tracer, c *pipeline.Core) {
	arena := pipeline.NewSnapshotArena()
	for i := 0; i < probeSnapshots; i++ {
		d := tr.do(trackProbe, "pipeline.Snapshot", func() { c.Snapshot(arena) })
		if i > 0 {
			p.snapS = append(p.snapS, d.Seconds())
		}
	}
}

// checkReplay records probeCheckCycles cycles of c's detector event
// stream with Core.SetProbe and replays it through a fresh detector's
// OnComplete. c must carry a detector built from sp.
func (p *layerProbe) checkReplay(e *env, tr *tracer, c *pipeline.Core, sp scheme.Spec) error {
	var evs []detect.Event
	c.SetProbe(func(ev detect.Event) { evs = append(evs, ev) })
	before := c.CommittedTotal()
	c.Run(probeCheckCycles)
	c.SetProbe(nil)
	inst, err := scheme.Build(sp, e.opts.SchemeEnv())
	if err != nil {
		return err
	}
	if inst.NewDetector == nil {
		return fmt.Errorf("probe: scheme %s has no detector", sp)
	}
	det := inst.NewDetector()
	d := tr.do(trackProbe, "core.OnComplete", func() {
		for _, ev := range evs {
			det.OnComplete(ev)
		}
	})
	p.checks += len(evs)
	p.checkS += d.Seconds()
	p.checkInstr += c.CommittedTotal() - before
	return nil
}

// interp times the sequential interpreter (the functional model under
// Core.WarmDetector) over n instructions of bench, once per bench.
func (p *layerProbe) interp(e *env, tr *tracer, bm workload.Benchmark, n uint64) {
	if p.interpDone == nil {
		p.interpDone = map[string]bool{}
	}
	if p.interpDone[bm.Name] {
		return
	}
	p.interpDone[bm.Name] = true
	it := prog.NewInterp(workload.Programs(bm, 1, e.opts.Seed)[0])
	var steps uint64
	d := tr.do(trackProbe, "prog.Interp.Run", func() { steps = it.Run(n) })
	p.interpInstr += steps
	p.interpS += d.Seconds()
}

// prepareSplit is one campaign cell's golden preparation taken apart:
// the benchmark times fault.Prepare on the cell, then rebuilds the
// cell's core and times WarmDetector and the timing-warmup Run on it;
// fault.Prepare's remainder is the golden trace.
type prepareSplit struct {
	prepareS, buildS, detWarmS, timWarmS float64
}

// probeCell runs the probes for one campaign cell on a fresh core built
// exactly as fault.Prepare builds its golden core.
func (p *layerProbe) probeCell(e *env, tr *tracer, cell campaign.Cell) (prepareSplit, error) {
	var split prepareSplit
	sp := cell.Scheme
	bm, err := workload.Resolve(cell.Bench)
	if err != nil {
		return split, err
	}
	cfg := e.opts.Fault
	mk := func() *pipeline.Core {
		c, err := e.opts.BuildCoreSpec(bm, sp, 1)
		if err != nil {
			panic(err)
		}
		return c
	}
	split.prepareS = tr.do(trackProbe, "fault.Prepare", func() { _, err = fault.Prepare(mk, cfg) }).Seconds()
	if err != nil {
		return split, err
	}
	var c *pipeline.Core
	split.buildS = tr.do(trackProbe, "harness.BuildCoreSpec", func() { c, err = e.opts.BuildCoreSpec(bm, sp, 1) }).Seconds()
	if err != nil {
		return split, err
	}
	split.detWarmS = tr.do(trackProbe, "pipeline.WarmDetector", func() { c.WarmDetector(cfg.DetectorWarmupInstr) }).Seconds()
	var n uint64
	split.timWarmS = tr.do(trackProbe, "pipeline.Run", func() { n = c.Run(cfg.WarmupCycles) }).Seconds()
	p.cycles += n
	p.runS += split.timWarmS
	p.core(c)
	p.snapshots(tr, c)
	if c.Detector() != nil {
		if err := p.checkReplay(e, tr, c, sp); err != nil {
			return split, err
		}
	}
	p.interp(e, tr, bm, cfg.DetectorWarmupInstr)
	return split, nil
}

// metrics returns the per-layer metrics every workload prints.
func (p *layerProbe) metrics() []metric {
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return []metric{
		{"harness.build_ms", median(p.buildS) * 1e3, "ms"},
		{"pipeline.ns_per_cycle", div(p.runS*1e9, float64(p.cycles)), "ns"},
		{"pipeline.snapshot_us_p50", median(p.snapS) * 1e6, "us"},
		{"core.ns_per_check", div(p.checkS*1e9, float64(p.checks)), "ns"},
		{"core.checks_per_kinstr", div(float64(p.checks)*1e3, float64(p.checkInstr)), "count"},
		{"mem.l1d_mpki", div(float64(p.l1d)*1e3, float64(p.instr)), "count"},
		{"mem.l2_mpki", div(float64(p.l2)*1e3, float64(p.instr)), "count"},
		{"prog.interp_ns_per_instr", div(p.interpS*1e9, float64(p.interpInstr)), "ns"},
	}
}

// timeBuilds builds every cell's core once, timing each
// BuildCoreSpec call: the set-up step that resolves a workload's cells
// to runnable cores before anything is timed.
func (p *layerProbe) timeBuilds(e *env, cells []campaign.Cell, threads int) error {
	for _, c := range cells {
		bm, err := workload.Resolve(c.Bench)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := e.opts.BuildCoreSpec(bm, c.Scheme, threads); err != nil {
			return fmt.Errorf("%s/%s: %w", c.Bench, c.Scheme, err)
		}
		p.buildS = append(p.buildS, time.Since(t0).Seconds())
	}
	return nil
}
