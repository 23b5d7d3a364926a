package fault

import (
	"testing"

	"faulthound/internal/core"
	"faulthound/internal/pipeline"
	"faulthound/internal/prog"
	"faulthound/internal/workload"
)

// Guard benchmarks for the injection engine's hot path: the per-run
// snapshot (clone) plus the faulty window. Campaign wall time is
// dominated by these, so they are tracked in BENCH_simcore.json via
// scripts/bench.sh (docs/PERFORMANCE.md).

// benchPrepared builds a warmed FaultHound campaign once per benchmark.
func benchPrepared(b *testing.B) *Prepared {
	b.Helper()
	bm, err := workload.Get("bzip2")
	if err != nil {
		b.Fatal(err)
	}
	p := bm.Build(prog.DefaultDataBase, 3)
	fhCfg := core.DefaultConfig()
	mk := func() *pipeline.Core {
		c, err := pipeline.New(pipeline.DefaultConfig(1), []*prog.Program{p}, core.New(fhCfg))
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	cfg := DefaultConfig()
	cfg.WarmupCycles = 20000
	cfg.DetectorWarmupInstr = 100000
	cfg.MaxCyclesPerRun = 30000
	prep, err := Prepare(mk, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return prep
}

// BenchmarkRunOne measures one complete injection — snapshot of the
// golden core, advance to the fault cycle, flip, run the window,
// classify — exactly as a campaign worker executes it, per-worker
// snapshot arena included. allocs/op here is the per-injection
// overhead that remains after the CoW/arena path.
func BenchmarkRunOne(b *testing.B) {
	p := benchPrepared(b)
	injs := p.Injections()
	arena := pipeline.NewSnapshotArena()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = p.Run(nil, injs[i%len(injs)], nil, arena)
	}
}

// BenchmarkRunOneDeepClone is BenchmarkRunOne without the arena — the
// eager deep-clone path — kept as the baseline the arena numbers are
// compared against.
func BenchmarkRunOneDeepClone(b *testing.B) {
	p := benchPrepared(b)
	injs := p.Injections()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = p.Run(nil, injs[i%len(injs)], nil, nil)
	}
}

// BenchmarkPreparedParallel measures sustained injections/sec with a
// full GOMAXPROCS worker pool over one prepared golden run — the
// steady-state regime of fhcampaign and fhserved, one snapshot arena
// per worker goroutine as in campaign.Engine.
func BenchmarkPreparedParallel(b *testing.B) {
	p := benchPrepared(b)
	injs := p.Injections()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		arena := pipeline.NewSnapshotArena()
		i := 0
		for pb.Next() {
			_, _ = p.Run(nil, injs[i%len(injs)], nil, arena)
			i++
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "inj/s")
	// Acceleration quality ride-alongs, gated next to injections_per_sec
	// in BENCH_simcore.json: the fraction of runs classified at
	// reconvergence, and the fraction of pre-injection fast-forward
	// cycles skipped by checkpoint forking.
	pf := p.Perf()
	b.ReportMetric(pf.EarlyExitFrac(), "early-exit-frac")
	b.ReportMetric(pf.ForkSavedFrac(), "fork-saved-frac")
}
