package report

import (
	"context"
	"fmt"
	"sync"

	"faulthound/internal/campaign"
	"faulthound/internal/fault"
	"faulthound/internal/obs"
	"faulthound/internal/pipeline"
	"faulthound/internal/scheme"
)

// Recorder is an obs.Sink that captures detection latencies from the
// injection-lifecycle event stream: it pairs each "inject" instant
// with the following "detect" instant on the same track (the same
// vocabulary the daemon's Prometheus histograms consume, docs/OBSERVABILITY.md)
// and records the cycle delta. Safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	tracks map[int]*recorderTrack
	// samples accumulates latencies in completion order; Replayer
	// resets the recorder per injection, so ordering never matters.
	samples []uint64
}

type recorderTrack struct {
	injectCycle uint64
	haveInject  bool
	detected    bool
}

// Event implements obs.Sink.
func (r *Recorder) Event(ev obs.Event) {
	if ev.Kind != obs.KindInstant {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tracks == nil {
		r.tracks = make(map[int]*recorderTrack)
	}
	st := r.tracks[ev.Track]
	if st == nil {
		st = &recorderTrack{}
		r.tracks[ev.Track] = st
	}
	switch ev.Name {
	case "inject":
		st.injectCycle, st.haveInject, st.detected = ev.Cycle, true, false
	case "detect":
		if st.haveInject && !st.detected && ev.Cycle >= st.injectCycle {
			st.detected = true
			r.samples = append(r.samples, ev.Cycle-st.injectCycle)
		}
	}
}

// Samples snapshots the recorded latencies.
func (r *Recorder) Samples() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.samples...)
}

// Replayer derives a bundle's detection latencies by re-executing
// exactly its detected injections: descriptors are re-drawn from the
// manifest's fault config (pre-drawn descriptors are a pure function
// of the seed), the cell's golden run is re-prepared through Factory,
// and each detected injection replays under a Recorder sink. Replay is
// deterministic, so the same bundle always yields the same latencies —
// and a replayed outcome that disagrees with the bundle's results.csv
// is reported as an error, because it means the current source tree no
// longer reproduces the bundle (golden drift).
type Replayer struct {
	// Factory resolves cells to core constructors
	// (harness.Options.CampaignFactory in the CLIs and the daemon).
	Factory campaign.CoreFactory
	// Fault is the bundle's fault config (manifest spec).
	Fault fault.Config
	// Prepare overrides golden-run preparation; nil means
	// fault.Prepare. The daemon routes this through its
	// fault.PreparedCache so report generation reuses warm golden state.
	Prepare func(bench, schemeSpec string, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error)
	// Outcome, when non-nil, receives each replayed injection's outcome
	// for cross-checking against the bundle (index, outcome string).
	Outcome func(bench, schemeSpec string, index int, outcome string)
}

// NewReplayer builds a Replayer over a bundle's manifest.
func NewReplayer(man *campaign.Manifest, factory campaign.CoreFactory) *Replayer {
	return &Replayer{Factory: factory, Fault: man.Spec.Fault}
}

// CellLatencies implements LatencyProvider.
func (r *Replayer) CellLatencies(bench, schemeSpec string, detected []int) ([]uint64, bool, error) {
	if r.Factory == nil || len(detected) == 0 {
		return nil, false, nil
	}
	sp, err := scheme.Parse(schemeSpec)
	if err != nil {
		// Old bundles may carry spec strings the current registry no
		// longer parses; fall back syntactically rather than failing the
		// whole report.
		sp = scheme.FromString(schemeSpec)
	}
	mk, err := r.Factory(bench, sp)
	if err != nil {
		return nil, false, fmt.Errorf("resolving cell: %w", err)
	}
	prep := r.Prepare
	if prep == nil {
		prep = func(_, _ string, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error) {
			return fault.Prepare(mk, cfg)
		}
	}
	p, err := prep(bench, schemeSpec, mk, r.Fault)
	if err != nil {
		return nil, false, fmt.Errorf("preparing golden run: %w", err)
	}

	injs := p.Injections()
	arena := pipeline.NewSnapshotArena()
	samples := make([]uint64, 0, len(detected))
	for _, idx := range detected {
		if idx < 0 || idx >= len(injs) {
			return nil, false, fmt.Errorf("detected index %d outside the %d drawn descriptors", idx, len(injs))
		}
		rec := &Recorder{}
		res, err := p.Run(context.Background(), injs[idx], rec, arena)
		if err != nil {
			return nil, false, err
		}
		if r.Outcome != nil {
			r.Outcome(bench, schemeSpec, idx, res.Outcome.String())
		}
		if !res.Detected {
			return nil, false, fmt.Errorf("replayed injection %d was not detected — the bundle does not reproduce on this source tree (golden drift)", idx)
		}
		got := rec.Samples()
		if len(got) == 0 {
			// Detected via the singleton end-of-window comparison with no
			// in-window detector action: no latency sample to take.
			continue
		}
		samples = append(samples, got[0])
	}
	return samples, true, nil
}
