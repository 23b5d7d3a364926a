package harness

import (
	"context"

	"faulthound/internal/campaign"
	"faulthound/internal/pipeline"
	"faulthound/internal/scheme"
	"faulthound/internal/workload"
)

// This file bridges the harness to the campaign engine: figure
// generation and standalone campaign running (cmd/fhcampaign) share
// one execution path — campaign.Engine over fault.Prepared — and the
// coverage/FP tables below consume campaign summaries.

// CampaignFactory adapts this Options' core construction to the
// campaign engine: scheme specs resolve through the scheme registry,
// cores build exactly as fault campaigns always have (single-threaded;
// see DESIGN.md). Resolution errors (unknown scheme, bad parameter)
// surface here, before any injection runs.
func (o Options) CampaignFactory() campaign.CoreFactory {
	return func(bench string, sp scheme.Spec) (func() *pipeline.Core, error) {
		bm, err := workload.Resolve(bench)
		if err != nil {
			return nil, err
		}
		if _, err := scheme.Build(sp, o.SchemeEnv()); err != nil {
			return nil, err
		}
		return func() *pipeline.Core {
			c, err := o.BuildCoreSpec(bm, sp, 1)
			if err != nil {
				panic(err)
			}
			return c
		}, nil
	}
}

// CampaignSpec builds a campaign spec from this Options: its fault
// config, seed, and worker count, over the given benchmarks and
// schemes (baseline is implicit).
func (o Options) CampaignSpec(benchmarks []string, schemes []Scheme) campaign.Spec {
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = string(s)
	}
	return campaign.Spec{
		Benchmarks: benchmarks,
		Schemes:    names,
		Workers:    o.Workers,
		Fault:      o.Fault,
	}
}

// RunCampaign executes a spec in memory (no artifact bundle) with this
// Options' core factory, reporting per-cell progress when verbose.
func (o Options) RunCampaign(spec campaign.Spec) (*campaign.Outcome, error) {
	return o.runCampaign(spec, o.CampaignFactory())
}

// runCampaign is RunCampaign over an explicit core factory — the hook
// for experiments with a harness-local cell (ExtStateDepth).
func (o Options) runCampaign(spec campaign.Spec, factory campaign.CoreFactory) (*campaign.Outcome, error) {
	eng := &campaign.Engine{
		Spec:    spec,
		Factory: factory,
		OnCell:  func(c campaign.Cell) { o.progress("campaign: %s", c) },
	}
	return eng.Run(context.Background(), "", false)
}

// CoverageTableFromSummary builds a per-benchmark coverage table (the
// Figure-8a shape) from a campaign summary: one row per benchmark, one
// column per scheme, plus the overall mean.
func CoverageTableFromSummary(id, title string, sum *campaign.Summary, benchmarks []string, schemes []Scheme) *Table {
	cols := []string{"benchmark"}
	for _, s := range schemes {
		cols = append(cols, string(s))
	}
	t := &Table{ID: id, Title: title, Columns: cols}
	sums := make([]float64, len(schemes))
	for _, bm := range benchmarks {
		row := []string{bm}
		for i, s := range schemes {
			cov, _ := sum.Coverage(bm, string(s))
			row = append(row, pct(cov))
			sums[i] += cov
		}
		t.AddRow(row...)
	}
	mean := []string{"mean(all)"}
	for _, s := range sums {
		mean = append(mean, pct(s/float64(len(benchmarks))))
	}
	t.AddRow(mean...)
	return t
}

// FPTableFromSummary builds a per-benchmark false-positive table from
// a campaign summary's fault-free golden-run FP rates — the campaign
// counterpart of the Figure-8b timing-run measurement.
func FPTableFromSummary(id, title string, sum *campaign.Summary, benchmarks []string, schemes []Scheme) *Table {
	cols := []string{"benchmark"}
	for _, s := range schemes {
		cols = append(cols, string(s))
	}
	t := &Table{ID: id, Title: title, Columns: cols}
	sums := make([]float64, len(schemes))
	for _, bm := range benchmarks {
		row := []string{bm}
		for i, s := range schemes {
			fp, _ := sum.FPRate(bm, string(s))
			row = append(row, pct(fp))
			sums[i] += fp
		}
		t.AddRow(row...)
	}
	mean := []string{"mean(all)"}
	for _, s := range sums {
		mean = append(mean, pct(s/float64(len(benchmarks))))
	}
	t.AddRow(mean...)
	return t
}
