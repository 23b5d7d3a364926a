package pipeline_test

import (
	"testing"

	"faulthound/internal/pipeline"
	"faulthound/internal/scheme"
	"faulthound/internal/workload"
)

// BenchmarkWarmDetector times the golden core's detector warmup: one
// op trains a fresh FaultHound detector over bzip2's first 1M
// instructions on the sequential interpreter — the TCAM lookups and
// interpreter steps that make up the warmup share of fault.Prepare.
func BenchmarkWarmDetector(b *testing.B) {
	bm, err := workload.Get("bzip2")
	if err != nil {
		b.Fatal(err)
	}
	sp, err := scheme.Parse("faulthound")
	if err != nil {
		b.Fatal(err)
	}
	inst, err := scheme.Build(sp, scheme.Env{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := pipeline.DefaultConfig(1)
	if inst.Configure != nil {
		inst.Configure(&cfg)
	}
	programs := workload.Programs(bm, 1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := pipeline.New(cfg, programs, inst.NewDetector())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		c.WarmDetector(1_000_000)
	}
}
