package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"faulthound/internal/fault"
	"faulthound/internal/obs"
	"faulthound/internal/pipeline"
	"faulthound/internal/scheme"
)

// ManifestName is the manifest's file name inside a run directory.
const ManifestName = "manifest.json"

// Manifest is the manifest.json artifact: provenance plus the spec
// verbatim. A resume run validates its spec against it.
type Manifest struct {
	Provenance Provenance `json:"provenance"`
	Spec       Spec       `json:"spec"`
}

// ReadManifest loads dir/manifest.json.
func ReadManifest(dir string) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("campaign: bad manifest in %s: %w", dir, err)
	}
	return &m, nil
}

// Engine executes a campaign spec. Factory supplies core construction
// per cell; Progress and OnCell are optional observation hooks, both
// invoked serially.
type Engine struct {
	Spec    Spec
	Factory CoreFactory
	// Source overrides the plan layer: the cells to execute. Nil means
	// the classic static enumeration Spec.Source() — benchmark-major,
	// baseline first. A non-nil Source drives the engine from an
	// external plan (a search batch); Spec.Benchmarks/Schemes are then
	// ignored and only Spec.Fault and Spec.Workers apply.
	Source CellSource
	// Progress is called after every completed injection with the
	// cumulative completed count (including journal-resumed results)
	// and the campaign total.
	Progress func(done, total int)
	// OnCell is called when a cell's golden-run preparation starts, from
	// whichever worker claimed the cell. A worker may prepare ahead, so
	// calls follow claim order, not cell order, and a call can come
	// while an earlier cell is still preparing.
	OnCell func(c Cell)
	// Prepare overrides the golden-run preparation of a cell; nil means
	// fault.Prepare. Long-lived callers (the campaign-serving daemon)
	// route this through a fault.PreparedCache so jobs sharing a cell
	// reuse one prepared golden core.
	Prepare func(c Cell, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error)
	// Warnf receives non-fatal diagnostics (a truncated journal record
	// skipped during resume); nil logs them to os.Stderr.
	Warnf func(format string, args ...any)
	// Obs receives injection-lifecycle events: a "prepare" span around
	// each cell's golden phase, a "prepare-wait" span while a worker
	// blocks on a cell another worker is preparing (arg: that cell), an
	// "injection" span around every faulty run (End carries the
	// outcome, or "cancelled" on abort), and the per-run instants
	// emitted by fault.Prepared.Run ("inject", detector actions,
	// "detect"). Events are stamped with the worker index as their
	// track. Nil disables instrumentation entirely.
	Obs obs.Sink
}

// warnf routes a non-fatal diagnostic to Warnf or stderr.
func (e *Engine) warnf(format string, args ...any) {
	if e.Warnf != nil {
		e.Warnf(format, args...)
		return
	}
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// Outcome is a finished campaign: the per-cell results in cell order,
// their aggregate summary, and run metadata.
type Outcome struct {
	Spec      Spec
	Cells     []Cell
	Campaigns []*fault.Campaign
	Summary   *Summary
	// Resumed counts injections restored from the journal instead of
	// executed.
	Resumed int
	// Elapsed is the wall-clock duration of this Run call.
	Elapsed time.Duration
	// Dir is the artifact bundle directory ("" for in-memory runs).
	Dir string
}

// cellState is one cell's lazily-prepared golden run. Exactly one
// worker claims the cell (claimed is guarded by the engine's mutex) and
// prepares it: either the first worker to pick a task of the cell or
// one preparing ahead while its own cell is still being prepared. ready
// closes when prepare returns; after that, prepared and err are
// read-only and prepared is shared by every worker (see fault.Prepared).
type cellState struct {
	claimed  bool
	ready    chan struct{}
	prepared *fault.Prepared
	err      error
}

type task struct{ cell, inj int }

// Resume continues an interrupted campaign from dir: it loads the
// manifest's spec into the engine (preserving a non-zero
// e.Spec.Workers override — a resume may use a different pool size)
// and replays the journal before executing the remainder. It is the
// exported resume entry point shared by cmd/fhcampaign and the
// campaign-serving daemon.
func (e *Engine) Resume(ctx context.Context, dir string) (*Outcome, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	workers := e.Spec.Workers
	// Execution-strategy knobs are JSON-excluded (zero in the manifest)
	// and, like Workers, belong to this run rather than the campaign:
	// keep the caller's settings.
	ckpt, early := e.Spec.Fault.CheckpointCycles, e.Spec.Fault.EarlyExit
	e.Spec = man.Spec
	if workers != 0 {
		e.Spec.Workers = workers
	}
	e.Spec.Fault.CheckpointCycles = ckpt
	e.Spec.Fault.EarlyExit = early
	return e.Run(ctx, dir, true)
}

// Run executes the campaign. With dir != "", the run journals into and
// writes its artifact bundle under dir; with resume true, dir must hold
// a prior run's manifest and journal, whose completed injections are
// reused. A cancelled ctx stops the run with ctx.Err(), leaving the
// journal for a later resume.
func (e *Engine) Run(ctx context.Context, dir string, resume bool) (*Outcome, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	source := e.Source
	if source == nil {
		// Classic path: the spec itself is the plan.
		if err := e.Spec.validate(); err != nil {
			return nil, err
		}
		source = e.Spec.Source()
	} else if e.Spec.Fault.Injections <= 0 {
		return nil, fmt.Errorf("campaign: spec has no injections")
	}
	if e.Factory == nil {
		return nil, fmt.Errorf("campaign: engine has no core factory")
	}
	if resume && dir == "" {
		return nil, fmt.Errorf("campaign: resume requires a run directory")
	}

	cells := source.Plan()
	if len(cells) == 0 {
		return nil, fmt.Errorf("campaign: plan has no cells")
	}
	nInj := e.Spec.Fault.Injections
	injs := fault.DrawInjections(e.Spec.Fault)
	cellIdx := make(map[Cell]int, len(cells))
	for i, c := range cells {
		cellIdx[c] = i
	}

	results := make([][]fault.Result, len(cells))
	have := make([][]bool, len(cells))
	for i := range cells {
		results[i] = make([]fault.Result, nInj)
		have[i] = make([]bool, nInj)
	}
	fpRates := make([]float64, len(cells))
	fpKnown := make([]bool, len(cells))

	// Resume: validate the manifest and replay the journal.
	resumed := 0
	if resume {
		man, err := ReadManifest(dir)
		if err != nil {
			return nil, err
		}
		if !e.Spec.equivalent(man.Spec) {
			return nil, fmt.Errorf("campaign: spec does not match the manifest in %s (cells or fault config differ)", dir)
		}
		jpath := filepath.Join(dir, JournalName)
		recs, repaired, err := RepairJournal(jpath)
		if err != nil {
			return nil, err
		}
		if repaired {
			// A process killed mid-append leaves a partial trailing
			// record. RepairJournal dropped it (that injection simply
			// re-executes) and cut the file so our own appends start on
			// a clean line boundary.
			e.warnf("campaign: journal %s: skipping truncated trailing record (process killed mid-write); re-executing that injection", jpath)
		}
		for _, r := range recs {
			ci, ok := cellIdx[Cell{r.Bench, scheme.FromString(r.Scheme)}]
			if !ok {
				return nil, fmt.Errorf("campaign: journal records unknown cell %s/%s", r.Bench, r.Scheme)
			}
			switch r.Kind {
			case "prep":
				fpRates[ci], fpKnown[ci] = r.FPRate, true
			case "result":
				if r.Index < 0 || r.Index >= nInj || r.Result == nil {
					return nil, fmt.Errorf("campaign: journal has bad result record for %s/%s index %d", r.Bench, r.Scheme, r.Index)
				}
				if !have[ci][r.Index] {
					resumed++
				}
				results[ci][r.Index] = *r.Result
				have[ci][r.Index] = true
			default:
				return nil, fmt.Errorf("campaign: journal has unknown record kind %q", r.Kind)
			}
		}
	}

	// Open the bundle directory and journal; a fresh run writes the
	// manifest up front so even an early kill leaves a resumable run.
	var journal *JournalWriter
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if !resume {
			man := Manifest{Provenance: NewProvenance(e.Spec.RunID), Spec: e.Spec}
			if err := WriteJSONFile(filepath.Join(dir, ManifestName), man); err != nil {
				return nil, err
			}
		}
		var err error
		journal, err = OpenJournal(filepath.Join(dir, JournalName))
		if err != nil {
			return nil, err
		}
		defer journal.Close()
	}

	// Enumerate outstanding tasks cell-major: workers converge on one
	// cell's injections, and a worker that reaches a cell another worker
	// is still preparing prepares a later cell meanwhile (see await).
	var tasks []task
	hasWork := make([]bool, len(cells))
	for ci := range cells {
		for i := 0; i < nInj; i++ {
			if !have[ci][i] {
				tasks = append(tasks, task{ci, i})
				hasWork[ci] = true
			}
		}
	}
	total := len(cells) * nInj

	states := make([]*cellState, len(cells))
	for i := range states {
		states[i] = &cellState{ready: make(chan struct{})}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
		done     = total - len(tasks)
		// next is the lowest cell index that may still be unclaimed.
		next int
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	// prepare runs the golden phase of cell ci, which the calling worker
	// has claimed, journals its fault-free FP rate, and closes the
	// cell's ready channel. The span lands on the claiming worker's
	// track — the one that actually paid the golden run.
	prepare := func(ci int, sink obs.Sink) {
		st := states[ci]
		defer close(st.ready)
		c := cells[ci]
		began := obs.Begin(sink, "prepare", c.String())
		defer func() { obs.End(sink, "prepare", began, "") }()
		if e.OnCell != nil {
			mu.Lock()
			e.OnCell(c)
			mu.Unlock()
		}
		mk, err := e.Factory(c.Bench, c.Scheme)
		if err != nil {
			st.err = fmt.Errorf("campaign: %s: %w", c, err)
			return
		}
		prep := e.Prepare
		if prep == nil {
			prep = func(_ Cell, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error) {
				return fault.Prepare(mk, cfg)
			}
		}
		p, err := prep(c, mk, e.Spec.Fault)
		if err != nil {
			st.err = fmt.Errorf("campaign: %s: %w", c, err)
			return
		}
		st.prepared = p
		mu.Lock()
		fpRates[ci], fpKnown[ci] = p.FPRate(), true
		mu.Unlock()
		if journal != nil {
			if err := journal.Append(Record{Kind: "prep", Bench: c.Bench, Scheme: c.Scheme.String(), FPRate: p.FPRate()}); err != nil {
				st.err = err
			}
		}
	}

	// await returns cell ci's state once it is prepared, or nil once the
	// run is cancelled. An unclaimed cell is claimed and prepared by the
	// caller. While another worker prepares it, the caller claims and
	// prepares the lowest-numbered unclaimed cell that still has
	// outstanding tasks, so prepares run side by side instead of one
	// worker idling on another's; it blocks (a "prepare-wait" span) only
	// when nothing is left to claim.
	await := func(ci int, sink obs.Sink) *cellState {
		st := states[ci]
		for {
			select {
			case <-st.ready:
				return st
			default:
			}
			mu.Lock()
			if runCtx.Err() != nil {
				mu.Unlock()
				return nil
			}
			claim := ci
			if st.claimed {
				for next < len(cells) && (states[next].claimed || !hasWork[next]) {
					next++
				}
				claim = next
			}
			if claim < len(cells) {
				states[claim].claimed = true
			}
			mu.Unlock()
			if claim < len(cells) {
				prepare(claim, sink)
				continue
			}
			began := obs.Begin(sink, "prepare-wait", cells[ci].String())
			select {
			case <-st.ready:
			case <-runCtx.Done():
			}
			obs.End(sink, "prepare-wait", began, "")
		}
	}

	workers := e.Spec.WorkerCount()
	if workers > len(tasks) && len(tasks) > 0 {
		workers = len(tasks)
	}
	taskCh := make(chan task)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wsink := obs.WithTrack(e.Obs, w)
			// One snapshot arena per worker: successive injections
			// rebuild the faulty core in the arena instead of deep-cloning
			// the golden state. Results and journal output are
			// bit-identical; the arena survives cell switches (mismatched
			// golden state just falls back to fresh allocation once).
			arena := pipeline.NewSnapshotArena()
			for t := range taskCh {
				st := await(t.cell, wsink)
				if st == nil {
					return
				}
				if st.err != nil {
					fail(st.err)
					return
				}
				// Prepared.Run polls runCtx inside the faulty run, so a
				// drain (SIGTERM) aborts promptly even mid-injection;
				// the partial injection is simply not journaled.
				began := obs.Begin(wsink, "injection", cells[t.cell].String())
				res, rerr := st.prepared.Run(runCtx, injs[t.inj], wsink, arena)
				if rerr != nil {
					obs.End(wsink, "injection", began, "cancelled")
					return
				}
				obs.End(wsink, "injection", began, res.Outcome.String())
				results[t.cell][t.inj] = res
				have[t.cell][t.inj] = true
				if journal != nil {
					c := cells[t.cell]
					if err := journal.Append(Record{Kind: "result", Bench: c.Bench, Scheme: c.Scheme.String(), Index: t.inj, Result: &res}); err != nil {
						fail(err)
						return
					}
				}
				mu.Lock()
				done++
				if e.Progress != nil {
					e.Progress(done, total)
				}
				mu.Unlock()
			}
		}(w)
	}

feed:
	for _, t := range tasks {
		select {
		case taskCh <- t:
		case <-runCtx.Done():
			break feed
		}
	}
	close(taskCh)
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	campaigns := make([]*fault.Campaign, len(cells))
	for ci := range cells {
		campaigns[ci] = &fault.Campaign{Config: e.Spec.Fault, Results: results[ci]}
	}
	out := &Outcome{
		Spec:      e.Spec,
		Cells:     cells,
		Campaigns: campaigns,
		Summary:   buildSummary(e.Spec, cells, campaigns, fpRates),
		Resumed:   resumed,
		Elapsed:   time.Since(start),
		Dir:       dir,
	}
	if dir != "" {
		if err := writeBundle(dir, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}
