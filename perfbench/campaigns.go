package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"faulthound/internal/campaign"
	"faulthound/internal/contract"
	"faulthound/internal/fault"
	"faulthound/internal/pipeline"
	"faulthound/internal/stats"
	"faulthound/internal/workload"
)

// referenceCSV is the committed reference-1k bundle: bzip2 and mcf ×
// {baseline, faulthound}, 250 injections per cell, fault seed 42.
var referenceCSV = filepath.Join("results", "campaigns", "reference-1k", "results.csv")

// referenceInjections is the reference bundle's injections per cell.
const referenceInjections = 250

// campaignShape is one campaign workload: the cells and injection count
// of the spec every operation runs.
type campaignShape struct {
	benches    []string
	schemes    []string
	injections int
	// prefix makes each bundle's first referenceInjections rows per
	// cell match the reference bundle (fault seed 42 only).
	prefix bool
}

// inject-heavy: a batch caller waiting for one large bundle. Thousands
// of injections per cell keep prepare under ~15% of worker busy time,
// so snapshot/fork, fast-forward, window and digest work dominate.
func runInjectHeavy(e *env) error {
	return e.runCampaigns(campaignShape{
		benches:    []string{"bzip2", "mcf"},
		schemes:    []string{"faulthound"},
		injections: 3000,
		prefix:     true,
	})
}

// prepare-heavy: a sweep or optimizer batch over all Table-1 kernels
// with a few injections per cell, so golden preparation (detector
// warmup, timing warmup, golden trace) is most of the busy time and
// workers block on another worker's prepare. Working sets run from
// 16 KB to 2 MB against the 32 KB L1D and 2 MB L2.
func runPrepareHeavy(e *env) error {
	return e.runCampaigns(campaignShape{
		benches:    workload.Names(),
		schemes:    []string{"faulthound"},
		injections: 16,
	})
}

// campaignRun is what one traced or untraced campaign left behind.
type campaignRun struct {
	executed int
	wall     time.Duration // spec to written bundle
	elapsed  time.Duration // Engine.Run until workers finished
	prepS    map[string]float64
	perf     fault.Perf
}

func (e *env) runCampaigns(shape campaignShape) error {
	spec := e.opts.CampaignSpec(shape.benches, nil)
	spec.Schemes = shape.schemes
	spec.Fault.Injections = shape.injections
	spec.Fault.Seed = e.seed
	spec.RunID = "perfbench-" + e.workload
	cells := spec.Cells()
	var probe layerProbe
	factory, err := timeSetup(e, func() (campaign.CoreFactory, error) {
		f := e.opts.CampaignFactory()
		for _, c := range cells {
			if _, err := f(c.Bench, c.Scheme); err != nil {
				return nil, err
			}
		}
		if err := probe.timeBuilds(e, cells, 1); err != nil {
			return nil, err
		}
		return f, os.MkdirAll(filepath.Join(e.work, "runs"), 0o755)
	}, nil)
	if err != nil {
		return err
	}
	var ref []byte
	if shape.prefix && e.seed == defaultSeed {
		if ref, err = os.ReadFile(referenceCSV); err != nil {
			return err
		}
	}

	n := 0
	one := func(tr *tracer) (campaignRun, error) {
		n++
		dir := filepath.Join(e.work, "runs", fmt.Sprintf("campaign-%d", n))
		defer os.RemoveAll(dir)
		run := campaignRun{prepS: map[string]float64{}}
		var (
			mu       sync.Mutex
			prepared []*fault.Prepared
		)
		eng := &campaign.Engine{
			Spec:    spec,
			Factory: factory,
			Prepare: func(c campaign.Cell, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error) {
				t0 := time.Now()
				p, err := fault.Prepare(mk, cfg)
				mu.Lock()
				run.prepS[c.String()] = time.Since(t0).Seconds()
				if p != nil {
					prepared = append(prepared, p)
				}
				mu.Unlock()
				return p, err
			},
		}
		if tr != nil {
			eng.Obs = tr
		}
		start := time.Now()
		out, err := eng.Run(context.Background(), dir, false)
		end := time.Now()
		run.wall = end.Sub(start)
		if err != nil {
			// Every cell of a failed campaign is a failed operation.
			for range cells {
				e.chk.op(err)
			}
			return run, nil
		}
		run.elapsed = out.Elapsed
		run.executed = len(out.Cells)*out.Summary.Injections - out.Resumed
		if tr != nil {
			tr.add(trackMain, "campaign.Engine.Run", start, end)
			tr.add(trackMain, "campaign.bundle_write", start.Add(out.Elapsed), end)
		}
		for _, p := range prepared {
			pf := p.Perf()
			run.perf.Runs += pf.Runs
			run.perf.EarlyExits += pf.EarlyExits
			run.perf.ForkCyclesSaved += pf.ForkCyclesSaved
			run.perf.OffsetCycles += pf.OffsetCycles
		}
		return run, e.checkBundle(dir, cells, ref, run.perf)
	}

	// The pass runs campaigns back to back for the budget. In the
	// traced run every second campaign is traced, so traced and
	// untraced campaigns see the same host conditions. The rate is the
	// median over campaigns of executed injections per wall second,
	// robust to a host slowdown spanning a minority of campaigns.
	var tr *tracer
	if e.traced {
		tr = newTracer()
	}
	var runs [2][]campaignRun // untraced, traced
	err = measure(e.budget, func(warm bool) error {
		traced := !warm && tr != nil && len(runs[0]) > len(runs[1])
		var t *tracer
		if traced {
			t = tr
		}
		r, err := one(t)
		if !warm {
			runs[btoi(traced)] = append(runs[btoi(traced)], r)
		}
		return err
	}, func() bool { return tr == nil || len(runs[1]) > 0 })
	if err != nil {
		return err
	}
	rate := func(rs []campaignRun) float64 {
		var rates []float64
		for _, r := range rs {
			rates = append(rates, float64(r.executed)/r.wall.Seconds())
		}
		return median(rates)
	}
	var ops []float64
	for _, r := range runs[0] {
		ops = append(ops, r.wall.Seconds())
	}
	e.throughput(rate(runs[0]), ops)
	if !e.traced {
		return nil
	}
	e.overhead(1/rate(runs[0]), 1/rate(runs[1]))
	return e.campaignLayers(tr, &probe, cells, runs[1])
}

// checkBundle verifies one campaign bundle: the contract, every cell's
// rows and summary entry, the reference prefix, and the deterministic
// Prepared.Perf counters.
func (e *env) checkBundle(dir string, cells []campaign.Cell, ref []byte, perf fault.Perf) error {
	var bundleErr error
	if err := contract.ValidateBundle(dir); err != nil {
		bundleErr = fmt.Errorf("%s: %w", dir, err)
	}
	csv, err := os.ReadFile(filepath.Join(dir, campaign.ResultsName))
	if err != nil {
		return err
	}
	sumB, err := os.ReadFile(filepath.Join(dir, campaign.SummaryName))
	if err != nil {
		return err
	}
	var sum campaign.Summary
	if err := json.Unmarshal(sumB, &sum); err != nil {
		return fmt.Errorf("%s: summary: %w", dir, err)
	}
	rows := cellRows(csv)
	for _, c := range cells {
		cs := sum.Cell(c.Bench, c.Scheme.String())
		e.checkCell(c.String(), cellFingerprint(rows[c.String()], cs), bundleErr)
	}
	if ref != nil {
		var err error
		if got := referencePrefix(csv, cells); !bytes.Equal(got, ref) {
			err = fmt.Errorf("first %d rows per cell differ from %s", referenceInjections, referenceCSV)
		}
		e.chk.op(err)
	}
	p := map[string]uint64{"runs": perf.Runs, "early_exits": perf.EarlyExits,
		"fork_cycles_saved": perf.ForkCyclesSaved, "offset_cycles": perf.OffsetCycles}
	if first, ok := e.det["fault.perf"]; ok && fmt.Sprint(first) != fmt.Sprint(p) {
		e.chk.op(fmt.Errorf("Prepared.Perf counters %v differ from this run's first campaign %v", p, first))
	}
	e.det["fault.perf"] = p
	return nil
}

// cellRows splits a results.csv body (header dropped) by its
// "bench,scheme" cell prefix.
func cellRows(csv []byte) map[string][]byte {
	out := map[string][]byte{}
	lines := strings.SplitAfter(string(csv), "\n")
	for _, l := range lines[1:] {
		parts := strings.SplitN(l, ",", 3)
		if len(parts) < 3 {
			continue
		}
		k := parts[0] + "/" + parts[1]
		out[k] = append(out[k], l...)
	}
	return out
}

// cellFingerprint identifies one campaign cell's output: its
// results.csv rows and its summary.json entry.
func cellFingerprint(rows []byte, cs *campaign.CellSummary) string {
	return digest(rows) + ":" + digest(mustJSON(cs))
}

// referencePrefix rebuilds a reference-1k-shaped results.csv from the
// first referenceInjections rows of each cell.
func referencePrefix(csv []byte, cells []campaign.Cell) []byte {
	header, _, _ := bytes.Cut(csv, []byte("\n"))
	out := append(append([]byte(nil), header...), '\n')
	rows := cellRows(csv)
	for _, c := range cells {
		lines := strings.SplitAfter(string(rows[c.String()]), "\n")
		for i := 0; i < referenceInjections && i < len(lines); i++ {
			out = append(out, lines[i]...)
		}
	}
	return out
}

// campaignLayers derives the campaign and fault per-layer metrics from
// the traced pass and runs the layer probes on every cell.
func (e *env) campaignLayers(tr *tracer, probe *layerProbe, cells []campaign.Cell, runs []campaignRun) error {
	var splits []prepareSplit
	for _, c := range cells {
		s, err := probe.probeCell(e, tr, c)
		if err != nil {
			return err
		}
		splits = append(splits, s)
	}
	k := float64(len(runs))
	workers := float64(e.opts.Workers)
	prepBusy := sum(tr.durations("prepare"))
	injBusy := sum(tr.durations("injection"))
	bundle := sum(tr.durations("campaign.bundle_write"))
	var capacity, wall float64
	var perf fault.Perf
	var prepS []float64
	for _, r := range runs {
		capacity += workers * r.elapsed.Seconds()
		wall += r.wall.Seconds()
		perf.Runs += r.perf.Runs
		perf.EarlyExits += r.perf.EarlyExits
		perf.ForkCyclesSaved += r.perf.ForkCyclesSaved
		perf.OffsetCycles += r.perf.OffsetCycles
		for _, s := range r.prepS {
			prepS = append(prepS, s)
		}
	}
	var prep, build, dw, tw float64
	for _, s := range splits {
		prep += s.prepareS
		build += s.buildS
		dw += s.detWarmS
		tw += s.timWarmS
	}
	nc := float64(len(splits))
	injUS := tr.durations("injection")
	for i := range injUS {
		injUS[i] *= 1e6
	}
	e.det["pipeline.probe_cycles"] = probe.cycles
	e.det["pipeline.probe_commits"] = probe.instr
	e.det["core.probe_checks"] = probe.checks
	e.layers = append(e.layers, probe.metrics()...)
	e.extra = append(e.extra,
		metric{"campaign.prepare_busy_s", prepBusy / k, "s"},
		metric{"campaign.inject_busy_s", injBusy / k, "s"},
		metric{"campaign.prepare_share", prepBusy / (prepBusy + injBusy), "frac"},
		metric{"campaign.bundle_write_ms", bundle / k * 1e3, "ms"},
		metric{"campaign.blocked_s", (capacity - prepBusy - injBusy) / k, "s"},
		metric{"campaign.span_coverage", (prepBusy + injBusy + bundle) / (workers * wall), "frac"},
		metric{"fault.prepare_ms_p50", median(prepS) * 1e3, "ms"},
		metric{"fault.prepare_ms_max", stats.Percentile(prepS, 100) * 1e3, "ms"},
		metric{"fault.detector_warmup_ms", dw / nc * 1e3, "ms"},
		metric{"fault.timing_warmup_ms", tw / nc * 1e3, "ms"},
		metric{"fault.golden_trace_ms", (prep - build - dw - tw) / nc * 1e3, "ms"},
		metric{"fault.inj_us_p50", median(injUS), "us"},
		metric{"fault.inj_us_p99", stats.Percentile(injUS, 99), "us"},
		metric{"fault.early_exit_frac", perf.EarlyExitFrac(), "frac"},
		metric{"fault.fork_saved_frac", perf.ForkSavedFrac(), "frac"},
		metric{"fault.runs", float64(perf.Runs), "count"},
	)
	return e.finishTrace(tr)
}

// finishTrace prints the self-time table and writes the Perfetto trace.
func (e *env) finishTrace(tr *tracer) error {
	tr.printLayerTable()
	names := map[int]string{trackMain: "caller", trackProbe: "layer probes"}
	for w := 0; w < e.opts.Workers; w++ {
		names[w] = fmt.Sprintf("worker-%d", w)
	}
	for c := 0; c < e.opts.Workers; c++ {
		names[trackClient0+c] = fmt.Sprintf("client-%d", c)
	}
	path := filepath.Join(filepath.Dir(e.work), fmt.Sprintf("trace-%s-seed%d.json", e.workload, e.seed))
	if err := tr.writePerfetto(path, names); err != nil {
		return err
	}
	fmt.Printf("trace: %s\n", path)
	return nil
}
