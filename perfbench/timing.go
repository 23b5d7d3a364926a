package main

import (
	"fmt"
	"time"

	"faulthound/internal/campaign"
	"faulthound/internal/harness"
	"faulthound/internal/pipeline"
	"faulthound/internal/scheme"
	"faulthound/internal/stats"
	"faulthound/internal/workload"
)

// sweepCommits is the per-thread measurement window of `make
// experiments` (-commits 60000).
const sweepCommits = 60000

// timing-sweep: harness.Options.TimingRunSpec over the 14 Table-1
// kernels × {baseline, faulthound} with 2-thread SMT, sequentially on
// one goroutine, caches warmed only by the recipe's warmup cycles. It
// exercises the pipeline as long continuous Core.Step runs with no
// snapshot or fork, so a change that makes snapshots cheaper by making
// steps slower shows here as a loss. Its baseline cells skip the
// detector: they are the control for detector changes. The seed only
// orders the cells; every cell's simulated result is seed-independent.
func runTimingSweep(e *env) error {
	e.seedFreeCells = true
	opts := e.opts
	opts.MeasureCommits = sweepCommits
	var cells []campaign.Cell
	for _, bm := range workload.All() {
		cells = append(cells, campaign.Cell{Bench: bm.Name, Scheme: campaign.BaselineSpec}, campaign.Cell{Bench: bm.Name, Scheme: scheme.Spec{Name: "faulthound"}})
	}
	order := stats.NewRNG(e.seed).Perm(len(cells))
	var probe layerProbe
	benches, err := timeSetup(e, func() (map[string]workload.Benchmark, error) {
		out := map[string]workload.Benchmark{}
		for _, c := range cells {
			bm, err := workload.Resolve(c.Bench)
			if err != nil {
				return nil, err
			}
			out[c.Bench] = bm
		}
		return out, probe.timeBuilds(e, cells, opts.Threads)
	}, nil)
	if err != nil {
		return err
	}

	// sweep runs every cell once through TimingRunSpec, or through the
	// benchmark's traced replica of its recipe, adding each cell's host
	// seconds to secs, and returns the simulated cycles and the sweep's
	// host seconds.
	sweep := func(tr *tracer, secs map[string][]float64) (cycles uint64, total float64, err error) {
		var commits, checks uint64
		for _, i := range order {
			c := cells[i]
			var (
				r   harness.Run
				d   time.Duration
				err error
			)
			if tr == nil {
				t0 := time.Now()
				r, err = opts.TimingRunSpec(benches[c.Bench], c.Scheme)
				d = time.Since(t0)
			} else {
				r, d, err = tracedTimingRun(opts, tr, &probe, benches[c.Bench], c.Scheme)
			}
			secs[c.String()] = append(secs[c.String()], d.Seconds())
			total += d.Seconds()
			if err != nil {
				e.chk.op(err)
				continue
			}
			e.checkCell(c.String(), fmt.Sprintf("cycles=%d committed=%d detector=%+v", r.Cycles, r.Committed, r.DetectorDelta), nil)
			cycles += r.Core.Cycle()
			commits += r.Core.CommittedTotal()
			checks += r.Core.DetectorStats().Checks
			if tr != nil {
				if err := timingProbes(e, tr, &probe, r.Core, benches[c.Bench], c.Scheme); err != nil {
					return 0, 0, err
				}
			}
		}
		e.det["pipeline.sweep_cycles"] = cycles
		e.det["pipeline.sweep_commits"] = commits
		e.det["core.sweep_checks"] = checks
		return cycles, total, nil
	}
	// The pass runs sweeps for the budget; in the traced run every
	// second sweep is traced, so traced and untraced sweeps see the same
	// host conditions. The rate is the simulated megacycles of one sweep
	// over the sum of each cell's median host time (robust to a host
	// slowdown during a minority of sweeps).
	var tr *tracer
	if e.traced {
		tr = newTracer()
	}
	secs := [2]map[string][]float64{{}, {}} // untraced, traced
	var ops [2][]float64
	var cycles uint64
	err = measure(e.budget, func(warm bool) error {
		traced := !warm && tr != nil && len(ops[0]) > len(ops[1])
		var t *tracer
		if traced {
			t = tr
		}
		if warm {
			_, _, err := sweep(nil, map[string][]float64{})
			return err
		}
		n, total, err := sweep(t, secs[btoi(traced)])
		cycles = n
		ops[btoi(traced)] = append(ops[btoi(traced)], total)
		return err
	}, func() bool { return tr == nil || len(ops[1]) > 0 })
	if err != nil {
		return err
	}
	rate := func(secs map[string][]float64) float64 {
		typical := 0.0
		for _, s := range secs {
			typical += median(s)
		}
		return float64(cycles) / 1e6 / typical
	}
	e.throughput(rate(secs[0]), ops[0])
	if !e.traced {
		return nil
	}
	e.overhead(1/rate(secs[0]), 1/rate(secs[1]))
	inRun := sum(tr.durations("pipeline.Run")) + sum(tr.durations("pipeline.RunUntilCommits"))
	e.layers = append(e.layers, probe.metrics()...)
	e.extra = append(e.extra, metric{"pipeline.run_share", inRun / sum(ops[1]), "frac"})
	return e.finishTrace(tr)
}

// tracedTimingRun is TimingRunSpec's recipe with a span around each
// layer call; its result must equal TimingRunSpec's, which the cell
// check enforces. It returns the run and its duration.
func tracedTimingRun(o harness.Options, tr *tracer, probe *layerProbe, bm workload.Benchmark, sp scheme.Spec) (harness.Run, time.Duration, error) {
	start := time.Now()
	var (
		c   *pipeline.Core
		err error
	)
	probe.buildS = append(probe.buildS, tr.do(trackMain, "harness.BuildCoreSpec", func() { c, err = o.BuildCoreSpec(bm, sp, o.Threads) }).Seconds())
	if err != nil {
		return harness.Run{}, 0, err
	}
	tr.do(trackMain, "pipeline.WarmDetector", func() { c.WarmDetector(o.DetectorWarmupInstr) })
	d := tr.do(trackMain, "pipeline.Run", func() { c.Run(o.WarmupCycles) })
	startCycles, startCommits, ds0 := c.Cycle(), c.CommittedTotal(), c.DetectorStats()
	target := c.Committed(0) + o.MeasureCommits
	var ok bool
	d += tr.do(trackMain, "pipeline.RunUntilCommits", func() { ok = c.RunUntilCommits(0, target, o.MaxCycles) })
	end := time.Now()
	tr.add(trackMain, "harness.TimingRunSpec", start, end)
	probe.cycles += c.Cycle()
	probe.runS += d.Seconds()
	if !ok {
		return harness.Run{}, 0, fmt.Errorf("%s/%s did not reach %d commits", bm.Name, sp, target)
	}
	ds := c.DetectorStats()
	ds.Checks -= ds0.Checks
	ds.Triggers -= ds0.Triggers
	ds.Suppressed -= ds0.Suppressed
	ds.Replays -= ds0.Replays
	ds.Rollbacks -= ds0.Rollbacks
	ds.Singletons -= ds0.Singletons
	ds.TCAMSearches, ds.TCAMUpdates, ds.TableReads, ds.TableWrites = 0, 0, 0, 0
	return harness.Run{
		Core:          c,
		Cycles:        c.Cycle() - startCycles,
		Committed:     c.CommittedTotal() - startCommits,
		DetectorDelta: ds,
	}, end.Sub(start), nil
}

// timingProbes runs the layer probes on a finished timing core.
func timingProbes(e *env, tr *tracer, probe *layerProbe, c *pipeline.Core, bm workload.Benchmark, sp scheme.Spec) error {
	probe.core(c)
	probe.snapshots(tr, c)
	probe.interp(e, tr, bm, e.opts.DetectorWarmupInstr)
	if c.Detector() == nil {
		return nil
	}
	return probe.checkReplay(e, tr, c, sp)
}
