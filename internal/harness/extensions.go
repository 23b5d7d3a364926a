package harness

import (
	"faulthound/internal/core"
	"faulthound/internal/detect"
	"faulthound/internal/energy"
	"faulthound/internal/filter"
	"faulthound/internal/pipeline"
	"faulthound/internal/scheme"
	"faulthound/internal/workload"
)

// The extension experiments reproduce the claims the paper makes in
// passing rather than in a numbered figure:
//
//   - Section 5.2: "leslie's low coverage across the board improves
//     with larger filters (not shown)" — ExtFilterSize.
//   - Section 3: "changing from two-bit to three-bit state machine
//     reduces the coverage from 80% to 60%" — ExtStateDepth.
//   - Section 1: full-redundancy SRT costs "13% and 56%" in
//     performance and energy — ExtFullSRT.

// ExtFilterSize sweeps the TCAM entry count on leslie3d (the paper's
// low-coverage outlier) and a locality-friendly reference benchmark.
// The sweep is registry data: faulthound?tcam=8|16|32|64 expands to
// one campaign cell per size (32 is plain faulthound), all run in one
// campaign next to each benchmark's baseline.
func ExtFilterSize(o Options) (*Table, error) {
	t := &Table{
		ID:      "ext-filters",
		Title:   "TCAM size sensitivity: SDC coverage (Section 5.2: leslie improves with larger filters)",
		Columns: []string{"benchmark", "8 entries", "16", "32 (paper)", "64"},
	}
	sweep, err := scheme.Expand("faulthound?tcam=8|16|32|64")
	if err != nil {
		return nil, err
	}
	schemes := make([]Scheme, len(sweep))
	for i, sp := range sweep {
		schemes[i] = Scheme(sp.String())
	}
	benches := []string{"leslie3d", "bzip2"}
	out, err := o.RunCampaign(o.CampaignSpec(benches, schemes))
	if err != nil {
		return nil, err
	}
	for _, name := range benches {
		row := []string{name}
		for _, s := range schemes {
			cov, _ := out.Summary.Coverage(name, string(s))
			row = append(row, pct(cov))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "paper: coverage grows with filter count, most sharply for leslie3d")
	return t, nil
}

// depth3 labels ExtStateDepth's three-deep biased state machine cell.
// It is harness-local: the filter policy is not a registry parameter,
// so the experiment's factory builds this one cell itself.
var depth3 = scheme.Spec{Name: "faulthound-depth3"}

// ExtStateDepth compares the biased two-bit machine against the
// three-deep variant the paper rejects for its coverage cost. The
// baseline, faulthound (two-bit) and depth-3 cells run in one
// campaign; the false-positive columns come from a fault-free timing
// run of each cell's core.
func ExtStateDepth(o Options) (*Table, error) {
	t := &Table{
		ID:      "ext-depth",
		Title:   "Biased state machine depth: coverage and false positives (Section 3: 2-bit vs 3-bit)",
		Columns: []string{"benchmark", "cov depth-2", "cov depth-3", "fp depth-2", "fp depth-3"},
	}
	bms, err := o.benchmarks()
	if err != nil {
		return nil, err
	}
	if len(bms) > 3 {
		bms = bms[:3]
	}
	benches := make([]string, len(bms))
	for i, bm := range bms {
		benches[i] = bm.Name
	}
	registry := o.CampaignFactory()
	factory := func(bench string, sp scheme.Spec) (func() *pipeline.Core, error) {
		if sp != depth3 {
			return registry(bench, sp)
		}
		bm, err := workload.Resolve(bench)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.Addr.Policy, cfg.Value.Policy = filter.Biased3, filter.Biased3
		return func() *pipeline.Core {
			c, err := pipeline.New(pipeline.DefaultConfig(1), workload.Programs(bm, 1, o.Seed), core.New(cfg))
			if err != nil {
				panic(err)
			}
			return c
		}, nil
	}
	schemes := []Scheme{FaultHound, Scheme(depth3.String())}
	out, err := o.runCampaign(o.CampaignSpec(benches, schemes), factory)
	if err != nil {
		return nil, err
	}
	for _, bench := range benches {
		row := []string{bench}
		var fps []string
		for _, s := range schemes {
			cov, _ := out.Summary.Coverage(bench, string(s))
			row = append(row, pct(cov))

			// False positives from a fault-free run of the same core.
			mk, err := factory(bench, scheme.FromString(string(s)))
			if err != nil {
				return nil, err
			}
			c := mk()
			c.WarmDetector(o.DetectorWarmupInstr)
			c.Run(o.WarmupCycles)
			ds0 := c.DetectorStats()
			n0 := c.CommittedTotal()
			c.RunUntilCommits(0, c.Committed(0)+o.MeasureCommits, o.MaxCycles)
			ds := c.DetectorStats()
			denom := float64(c.CommittedTotal() - n0)
			fps = append(fps, pct(float64(ds.Replays+ds.Rollbacks+ds.Singletons-
				ds0.Replays-ds0.Rollbacks-ds0.Singletons)/denom))
		}
		t.AddRow(append(row, fps...)...)
	}
	t.Notes = append(t.Notes, "paper: deeper bias trades coverage (80% -> 60%) for fewer false positives")
	return t, nil
}

// ExtFullSRT reproduces the introduction's full-redundancy numbers:
// "full-redundancy schemes incur high performance and energy overheads
// (our simulations show 13% and 56%, respectively)".
func ExtFullSRT(o Options) (*Table, error) {
	t := &Table{
		ID:      "ext-srt",
		Title:   "Full-redundancy SRT overheads (Section 1: ~13% performance, ~56% energy)",
		Columns: []string{"benchmark", "perf overhead", "energy overhead"},
	}
	bms, err := o.benchmarks()
	if err != nil {
		return nil, err
	}
	model := energy.Default()
	var perfSum, enSum float64
	for _, bm := range bms {
		o.progress("ext-srt: %s", bm.Name)
		base, err := o.TimingRun(bm, Baseline)
		if err != nil {
			return nil, err
		}
		srt, err := o.TimingRun(bm, SRTFull)
		if err != nil {
			return nil, err
		}
		perf := float64(srt.Cycles)/float64(base.Cycles) - 1
		baseE := model.Compute(base.Core.Stats(), base.Core.MemStats(), detect.Stats{}).Total()
		srtE := model.Compute(srt.Core.Stats(), srt.Core.MemStats(), detect.Stats{}).Total()
		en := energy.Overhead(srtE, baseE)
		t.AddRow(bm.Name, pct(perf), pct(en))
		perfSum += perf
		enSum += en
	}
	n := float64(len(bms))
	t.AddRow("mean(all)", pct(perfSum/n), pct(enSum/n))
	t.Notes = append(t.Notes, "redundant copies consume issue/FU bandwidth and energy; energy cannot be hidden")
	return t, nil
}

// Extensions runs all extension experiments.
func Extensions(o Options) ([]*Table, error) {
	var out []*Table
	for _, f := range []func(Options) (*Table, error){ExtFilterSize, ExtStateDepth, ExtFullSRT} {
		t, err := f(o)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
