package campaign_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faulthound/internal/campaign"
	"faulthound/internal/fault"
	"faulthound/internal/harness"
	"faulthound/internal/obs"
	"faulthound/internal/pipeline"
	"faulthound/internal/scheme"
)

// testSpec returns a small two-cell campaign (bzip2 x baseline +
// faulthound) and the harness options that resolve its cores.
func testSpec(t *testing.T, injections int) (campaign.Spec, harness.Options) {
	t.Helper()
	o := harness.QuickOptions()
	spec := o.CampaignSpec([]string{"bzip2"}, []harness.Scheme{harness.FaultHound})
	spec.RunID = "test-run"
	spec.Fault.Injections = injections
	return spec, o
}

// multiSpec is testSpec over several kernels: len(benches) ×
// {baseline, faulthound} cells.
func multiSpec(t *testing.T, benches []string, injections int) (campaign.Spec, harness.Options) {
	t.Helper()
	spec, o := testSpec(t, injections)
	spec.Benchmarks = benches
	return spec, o
}

func runEngine(t *testing.T, spec campaign.Spec, o harness.Options, dir string, resume bool, progress func(done, total int)) (*campaign.Outcome, error) {
	t.Helper()
	eng := &campaign.Engine{Spec: spec, Factory: o.CampaignFactory(), Progress: progress}
	return eng.Run(context.Background(), dir, resume)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkerCountInvariance is the determinism guarantee: the same spec
// produces byte-identical results.csv and summary.json bundles whether
// one worker or many execute it. In the many-cell case, workers prepare
// cells ahead of the one being injected.
func TestWorkerCountInvariance(t *testing.T) {
	for _, tc := range []struct {
		benches    []string
		injections int
		workers    []int
	}{
		{[]string{"bzip2"}, 24, []int{1, 4}},
		{[]string{"bzip2", "mcf", "gamess", "ocean"}, 8, []int{1, 2, 4}},
	} {
		spec, o := multiSpec(t, tc.benches, tc.injections)
		var ref [2][]byte
		for _, workers := range tc.workers {
			dir := filepath.Join(t.TempDir(), "run")
			s := spec
			s.Workers = workers
			if _, err := runEngine(t, s, o, dir, false, nil); err != nil {
				t.Fatal(err)
			}
			// summary.json must match too (aggregates of the same results).
			got := [2][]byte{
				readFile(t, filepath.Join(dir, campaign.ResultsName)),
				readFile(t, filepath.Join(dir, campaign.SummaryName)),
			}
			if ref[0] == nil {
				ref = got
				continue
			}
			if string(got[0]) != string(ref[0]) {
				t.Fatalf("%v: results.csv differs between -workers 1 and -workers %d", tc.benches, workers)
			}
			if string(got[1]) != string(ref[1]) {
				t.Fatalf("%v: summary.json differs between -workers 1 and -workers %d", tc.benches, workers)
			}
		}
		if len(ref[0]) == 0 {
			t.Fatal("empty results.csv")
		}
	}
}

// TestResumeSkipsJournaledCell: a cell whose every injection is already
// journaled has no outstanding task, so no worker may prepare it, not
// even one preparing ahead while it waits on another cell.
func TestResumeSkipsJournaledCell(t *testing.T) {
	spec, o := multiSpec(t, []string{"bzip2", "mcf", "gamess"}, 4)
	spec.Workers = 4
	refDir := filepath.Join(t.TempDir(), "ref")
	if _, err := runEngine(t, spec, o, refDir, false, nil); err != nil {
		t.Fatal(err)
	}

	// A run directory whose journal holds exactly cell 0's records.
	cells := spec.Cells()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, campaign.ManifestName), readFile(t, filepath.Join(refDir, campaign.ManifestName)), 0o644); err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.SplitAfter(string(readFile(t, filepath.Join(refDir, campaign.JournalName))), "\n") {
		var r campaign.Record
		if json.Unmarshal([]byte(line), &r) == nil && r.Bench == cells[0].Bench && r.Scheme == cells[0].Scheme.String() {
			kept = append(kept, line)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, campaign.JournalName), []byte(strings.Join(kept, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	seen := map[campaign.Cell]int{}
	eng := &campaign.Engine{
		Spec:    spec,
		Factory: o.CampaignFactory(),
		Prepare: func(c campaign.Cell, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error) {
			mu.Lock()
			seen[c]++
			mu.Unlock()
			return fault.Prepare(mk, cfg)
		},
	}
	out, err := eng.Run(context.Background(), dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if out.Resumed != spec.Fault.Injections {
		t.Fatalf("resumed %d results, want cell 0's %d", out.Resumed, spec.Fault.Injections)
	}
	if seen[cells[0]] != 0 {
		t.Fatalf("fully journaled cell %s was prepared", cells[0])
	}
	for _, c := range cells[1:] {
		if seen[c] != 1 {
			t.Fatalf("cell %s prepared %d times, want 1", c, seen[c])
		}
	}
	if string(readFile(t, filepath.Join(dir, campaign.ResultsName))) !=
		string(readFile(t, filepath.Join(refDir, campaign.ResultsName))) {
		t.Fatal("resumed results.csv differs from the uninterrupted run")
	}
}

// TestCancelStopsPrepareAhead: a drain must not go on preparing the
// rest of the plan. The run is cancelled after its first completed
// injection; a worker may at most finish the claim it made before the
// cancel, so no more than Workers Prepare calls start after it. Four
// workers take the first four tasks, two each of cells 0 and 1.
// Prepares of every cell but cell 0 block until the cancel, and cell
// 1's is held a while longer, so the cell-1 worker that did not claim
// cell 1 is still waiting on it, and looking for cells to prepare,
// when the cancel lands.
func TestCancelStopsPrepareAhead(t *testing.T) {
	spec, o := multiSpec(t, []string{"bzip2", "mcf", "gamess", "ocean", "perl", "astar"}, 2)
	spec.Workers = 4
	cells := spec.Cells()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		cancelled atomic.Bool
		after     atomic.Int32
	)
	eng := &campaign.Engine{
		Spec:    spec,
		Factory: o.CampaignFactory(),
		Progress: func(done, total int) {
			cancelled.Store(true)
			cancel()
		},
		Prepare: func(c campaign.Cell, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error) {
			if cancelled.Load() {
				after.Add(1)
			}
			if c != cells[0] {
				<-ctx.Done()
			}
			if c == cells[1] {
				hold := time.Now().Add(500 * time.Millisecond)
				for time.Now().Before(hold) && after.Load() <= int32(spec.Workers) {
					time.Sleep(time.Millisecond)
				}
			}
			return fault.Prepare(mk, cfg)
		},
	}
	if _, err := eng.Run(ctx, "", false); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if n := after.Load(); n > int32(spec.Workers) {
		t.Fatalf("%d Prepare calls started after the cancel, want at most %d", n, spec.Workers)
	}
}

// TestResumeReproducesBundle kills a campaign mid-flight (context
// cancel after N results), restarts it with resume, and asserts the
// merged bundle is byte-identical to an uninterrupted run with the
// same seed — the journal-resume guarantee, run under -race in CI.
func TestResumeReproducesBundle(t *testing.T) {
	spec, o := testSpec(t, 24)
	spec.Workers = 4

	// Uninterrupted reference run.
	refDir := filepath.Join(t.TempDir(), "ref")
	if _, err := runEngine(t, spec, o, refDir, false, nil); err != nil {
		t.Fatal(err)
	}
	refCSV := readFile(t, filepath.Join(refDir, campaign.ResultsName))

	// Interrupted run: cancel after 10 completed injections.
	dir := filepath.Join(t.TempDir(), "run")
	ctx, cancel := context.WithCancel(context.Background())
	eng := &campaign.Engine{
		Spec:    spec,
		Factory: o.CampaignFactory(),
		Progress: func(done, total int) {
			if done >= 10 {
				cancel()
			}
		},
	}
	if _, err := eng.Run(ctx, dir, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	if _, err := os.Stat(filepath.Join(dir, campaign.ResultsName)); !os.IsNotExist(err) {
		t.Fatal("interrupted run should not have written results.csv")
	}
	recs, err := campaign.ReadJournal(filepath.Join(dir, campaign.JournalName))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("interrupted run left an empty journal")
	}

	// Resume and compare.
	out, err := runEngine(t, spec, o, dir, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Resumed < 10 {
		t.Fatalf("resumed %d results, expected >= 10", out.Resumed)
	}
	gotCSV := readFile(t, filepath.Join(dir, campaign.ResultsName))
	if string(gotCSV) != string(refCSV) {
		t.Fatal("resumed results.csv differs from the uninterrupted run")
	}
	if string(readFile(t, filepath.Join(dir, campaign.SummaryName))) !=
		string(readFile(t, filepath.Join(refDir, campaign.SummaryName))) {
		t.Fatal("resumed summary.json differs from the uninterrupted run")
	}
}

// TestResumeSpecMismatch rejects resuming with a different campaign.
func TestResumeSpecMismatch(t *testing.T) {
	spec, o := testSpec(t, 8)
	dir := filepath.Join(t.TempDir(), "run")
	if _, err := runEngine(t, spec, o, dir, false, nil); err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Fault.Seed++
	if _, err := runEngine(t, other, o, dir, true, nil); err == nil {
		t.Fatal("resume with a different seed should fail")
	}
}

// TestBundleArtifacts checks the bundle contents: a parsable manifest
// with provenance, a summary whose cells partition the injections, and
// a report referencing every artifact.
func TestBundleArtifacts(t *testing.T) {
	spec, o := testSpec(t, 12)
	dir := filepath.Join(t.TempDir(), "run")
	out, err := runEngine(t, spec, o, dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}

	man, err := campaign.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Provenance.RunID != "test-run" || man.Provenance.GoVersion == "" || man.Provenance.GitCommit == "" {
		t.Fatalf("incomplete provenance: %+v", man.Provenance)
	}
	if cells := man.Spec.Cells(); len(cells) != 2 || cells[0].Scheme != campaign.BaselineSpec {
		t.Fatalf("manifest spec cells = %v", cells)
	}

	var sum campaign.Summary
	if err := json.Unmarshal(readFile(t, filepath.Join(dir, campaign.SummaryName)), &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.Cells) != 2 {
		t.Fatalf("summary has %d cells, want 2", len(sum.Cells))
	}
	for _, c := range sum.Cells {
		if c.Masked+c.Noisy+c.SDC != spec.Fault.Injections {
			t.Fatalf("cell %s/%s outcomes do not partition: %d+%d+%d != %d",
				c.Bench, c.Scheme, c.Masked, c.Noisy, c.SDC, spec.Fault.Injections)
		}
	}
	fh := sum.Cell("bzip2", string(harness.FaultHound))
	if fh == nil || fh.Coverage == nil {
		t.Fatal("faulthound cell has no coverage summary")
	}
	if base := sum.Cell("bzip2", campaign.BaselineScheme); base == nil || base.Coverage != nil {
		t.Fatal("baseline cell should exist without coverage")
	}

	report := string(readFile(t, filepath.Join(dir, campaign.ReportName)))
	for _, want := range []string{"Run ID", campaign.ResultsName, campaign.SummaryName, campaign.JournalName, "## Classification"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report.md missing %q", want)
		}
	}
	if out.Summary.Injections != spec.Fault.Injections {
		t.Fatalf("summary injections = %d", out.Summary.Injections)
	}
}

// TestSummaryMatchesPairCoverage cross-checks the engine's aggregation
// against the fault package's reference pairing.
func TestSummaryMatchesPairCoverage(t *testing.T) {
	spec, o := testSpec(t, 24)
	out, err := runEngine(t, spec, o, "", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := fault.PairCoverage(out.Campaigns[0], out.Campaigns[1])
	fh := out.Summary.Cell("bzip2", string(harness.FaultHound))
	if fh.Coverage.SDCBase != rep.SDCBase || fh.Coverage.Covered != rep.CoveredCount {
		t.Fatalf("summary coverage %+v != PairCoverage %+v", fh.Coverage, rep)
	}
}

// TestJournalTolerance: a truncated final line (killed mid-write) is
// ignored; interior corruption is an error.
func TestJournalTolerance(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	good := `{"kind":"prep","bench":"b","scheme":"s","fp_rate":0.5}` + "\n"
	if err := os.WriteFile(path, []byte(good+`{"kind":"result","bench`), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := campaign.ReadJournal(path)
	if err != nil {
		t.Fatalf("truncated final line should be tolerated: %v", err)
	}
	if len(recs) != 1 || recs[0].Kind != "prep" {
		t.Fatalf("records = %+v", recs)
	}

	if err := os.WriteFile(path, []byte("garbage\n"+good), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.ReadJournal(path); err == nil {
		t.Fatal("interior corruption should be an error")
	}

	if recs, err := campaign.ReadJournal(filepath.Join(dir, "missing.jsonl")); err != nil || recs != nil {
		t.Fatalf("missing journal: recs=%v err=%v", recs, err)
	}
}

// TestResumeTruncatedJournal is the regression test for a process
// killed mid-append: the journal's trailing record is cut mid-JSON, and
// -resume must warn, skip (and re-execute) that record, repair the
// journal, and still reproduce the uninterrupted bundle byte for byte.
// A second resume of the repaired journal must not see interior
// corruption.
func TestResumeTruncatedJournal(t *testing.T) {
	spec, o := testSpec(t, 24)
	spec.Workers = 2

	// Uninterrupted reference run.
	refDir := filepath.Join(t.TempDir(), "ref")
	if _, err := runEngine(t, spec, o, refDir, false, nil); err != nil {
		t.Fatal(err)
	}

	// Interrupted run, then truncate the journal mid-record.
	dir := filepath.Join(t.TempDir(), "run")
	ctx, cancel := context.WithCancel(context.Background())
	eng := &campaign.Engine{
		Spec:    spec,
		Factory: o.CampaignFactory(),
		Progress: func(done, total int) {
			if done >= 8 {
				cancel()
			}
		},
	}
	if _, err := eng.Run(ctx, dir, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	jpath := filepath.Join(dir, campaign.JournalName)
	raw := readFile(t, jpath)
	if len(raw) < 40 {
		t.Fatalf("journal too short to truncate: %d bytes", len(raw))
	}
	// Chop the final record roughly in half (strip the trailing newline
	// first so the cut lands mid-JSON).
	body := strings.TrimSuffix(string(raw), "\n")
	last := strings.LastIndexByte(body, '\n') + 1
	cut := last + (len(body)-last)/2
	if err := os.WriteFile(jpath, []byte(body[:cut]), 0o644); err != nil {
		t.Fatal(err)
	}

	var warned []string
	eng2 := &campaign.Engine{
		Spec:    spec,
		Factory: o.CampaignFactory(),
		Warnf:   func(format string, args ...any) { warned = append(warned, fmt.Sprintf(format, args...)) },
	}
	out, err := eng2.Resume(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(warned) == 0 || !strings.Contains(warned[0], "truncated") {
		t.Fatalf("resume over a truncated journal should warn, got %q", warned)
	}
	if out.Resumed == 0 {
		t.Fatal("resume replayed no journal records")
	}
	if string(readFile(t, filepath.Join(dir, campaign.ResultsName))) !=
		string(readFile(t, filepath.Join(refDir, campaign.ResultsName))) {
		t.Fatal("resumed results.csv differs from the uninterrupted run")
	}
	if string(readFile(t, filepath.Join(dir, campaign.SummaryName))) !=
		string(readFile(t, filepath.Join(refDir, campaign.SummaryName))) {
		t.Fatal("resumed summary.json differs from the uninterrupted run")
	}

	// The repaired journal must be fully parsable: the resume's appends
	// started on a clean line boundary.
	if _, err := campaign.ReadJournal(jpath); err != nil {
		t.Fatalf("journal corrupted by resume appends: %v", err)
	}
}

// TestCellsEnumeration: baseline first per benchmark, duplicates and
// explicit "baseline" entries collapse.
func TestCellsEnumeration(t *testing.T) {
	s := campaign.Spec{
		Benchmarks: []string{"a", "b"},
		Schemes:    []string{"baseline", "x", "x", "y"},
	}
	got := s.Cells()
	want := []campaign.Cell{
		{"a", scheme.Spec{Name: "baseline"}}, {"a", scheme.Spec{Name: "x"}}, {"a", scheme.Spec{Name: "y"}},
		{"b", scheme.Spec{Name: "baseline"}}, {"b", scheme.Spec{Name: "x"}}, {"b", scheme.Spec{Name: "y"}},
	}
	if len(got) != len(want) {
		t.Fatalf("cells = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cells[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestCellSeedDecorrelation: distinct cells derive distinct auxiliary
// seeds, stable across calls.
func TestCellSeedDecorrelation(t *testing.T) {
	fh := scheme.Spec{Name: "faulthound"}
	a := campaign.CellSeed(1, campaign.Cell{Bench: "bzip2", Scheme: fh})
	b := campaign.CellSeed(1, campaign.Cell{Bench: "bzip2", Scheme: campaign.BaselineSpec})
	c := campaign.CellSeed(1, campaign.Cell{Bench: "mcf", Scheme: fh})
	if a == b || a == c || b == c {
		t.Fatalf("cell seeds collide: %x %x %x", a, b, c)
	}
	if a != campaign.CellSeed(1, campaign.Cell{Bench: "bzip2", Scheme: fh}) {
		t.Fatal("cell seed not stable")
	}
}

// TestEngineObs runs a multi-worker campaign with a recording sink and
// checks the lifecycle stream: every track has matched begin/end span
// pairs, every injection span ends with a valid outcome, tracks stay
// within the worker pool, the injection span count matches the
// campaign size, every cell has exactly one prepare span, and no
// prepare-wait span nests inside a prepare.
func TestEngineObs(t *testing.T) {
	spec, o := testSpec(t, 16)
	spec.Workers = 4
	var rec obs.Collector
	eng := &campaign.Engine{Spec: spec, Factory: o.CampaignFactory(), Obs: &rec}
	out, err := eng.Run(context.Background(), "", false)
	if err != nil {
		t.Fatal(err)
	}
	total := len(out.Cells) * spec.Fault.Injections

	valid := map[string]bool{"masked": true, "noisy": true, "sdc": true}
	open := map[int][]string{}
	injections := 0
	prepares := map[string]int{}
	for i, ev := range rec.Events() {
		if ev.Track < 0 || ev.Track >= spec.Workers {
			t.Fatalf("event %d on track %d, worker pool is %d", i, ev.Track, spec.Workers)
		}
		switch ev.Kind {
		case obs.KindBegin:
			if ev.Name == "prepare-wait" {
				for _, name := range open[ev.Track] {
					if name == "prepare" {
						t.Fatalf("event %d: prepare-wait nested inside a prepare on track %d", i, ev.Track)
					}
				}
			}
			if ev.Name == "prepare" {
				prepares[ev.Arg]++
			}
			open[ev.Track] = append(open[ev.Track], ev.Name)
		case obs.KindEnd:
			stack := open[ev.Track]
			if len(stack) == 0 || stack[len(stack)-1] != ev.Name {
				t.Fatalf("event %d: end %q does not match track %d stack %v", i, ev.Name, ev.Track, stack)
			}
			open[ev.Track] = stack[:len(stack)-1]
			switch ev.Name {
			case "injection":
				injections++
				if !valid[ev.Arg] {
					t.Fatalf("injection span ended with outcome %q", ev.Arg)
				}
			}
		}
	}
	for tr, stack := range open {
		if len(stack) != 0 {
			t.Fatalf("track %d left spans open: %v", tr, stack)
		}
	}
	if injections != total {
		t.Fatalf("saw %d injection spans, want %d", injections, total)
	}
	if len(prepares) != len(out.Cells) {
		t.Fatalf("saw prepare spans for %d cells, want %d", len(prepares), len(out.Cells))
	}
	for _, c := range out.Cells {
		if n := prepares[c.String()]; n != 1 {
			t.Fatalf("cell %s has %d prepare spans, want 1", c, n)
		}
	}
}
