// Package fault implements the paper's fault-injection methodology
// (Section 4): tandem golden/faulty simulation with single-bit flips
// into the physical register file (emulating back-end control and
// datapath faults), the load-store queue, and the rename table, in
// McPAT-derived area proportions (front-end 20%, back-end 80% of which
// LSQ 8%). A fault is classified after a run window of committed
// instructions by comparing architectural state against the golden run:
// a differing exception stream is "noisy", identical state is "masked",
// and the rest is silent data corruption (SDC) — the faults the
// detection schemes are measured on.
package fault

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"

	"faulthound/internal/detect"
	"faulthound/internal/isa"
	"faulthound/internal/obs"
	"faulthound/internal/pipeline"
	"faulthound/internal/stats"
)

// Structure identifies the injected structure.
type Structure uint8

// Injection structures (Section 4).
const (
	RegFile Structure = iota
	RenameTable
	LSQ
)

// String names the structure.
func (s Structure) String() string {
	switch s {
	case RegFile:
		return "regfile"
	case RenameTable:
		return "rename"
	case LSQ:
		return "lsq"
	}
	return "?"
}

// Outcome is the architectural consequence of one injected fault.
type Outcome uint8

// Fault outcomes (Figure 7 categories).
const (
	// Masked: state after the run window equals the golden run's.
	Masked Outcome = iota
	// Noisy: the fault raised a translation exception (or hung the
	// pipeline, detectable by a watchdog) — detected "for free".
	Noisy
	// SDC: silent data corruption — state differs with no exception.
	SDC
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Masked:
		return "masked"
	case Noisy:
		return "noisy"
	case SDC:
		return "sdc"
	}
	return "?"
}

// Config parameterizes a campaign. The paper injects 15,000 faults per
// run; the default here is scaled down for tractable reproduction and
// can be raised.
type Config struct {
	// Injections is the number of single-bit faults.
	Injections int
	// WarmupCycles runs the golden core before the injection region
	// (cache and filter warmup, Table 1's warmup role).
	WarmupCycles uint64
	// SpreadCycles is the injection window: each fault lands at a
	// uniformly random cycle within this many cycles after warmup (the
	// paper uses a 500-cycle period).
	SpreadCycles uint64
	// WindowInstr is the run window after injection before state
	// comparison (the paper uses 1000 instructions).
	WindowInstr uint64
	// FrontEndPct and LSQPct set the injection proportions; the
	// remainder goes to the register file. Paper: 20% front end, 8%
	// LSQ (of the total), 72% register file.
	FrontEndPct float64
	LSQPct      float64
	// InFlightBias is the fraction of register-file-class injections
	// directed at in-flight destination registers. The paper injects
	// into the register file to "also emulate faults in the back-end
	// control and datapath" — faults in FU outputs and bypass latches
	// land on young, in-flight values, which is what this bias models.
	InFlightBias float64
	// DetectorWarmupInstr fast-forwards the detector's filters over the
	// architectural value stream before the timing warmup (standing in
	// for the paper's 50M-instruction runs, which saturate the filter
	// state machines).
	DetectorWarmupInstr uint64
	// MaxCyclesPerRun bounds each faulty run (hang watchdog).
	MaxCyclesPerRun uint64
	// Seed drives every random choice; identical seeds give identical
	// injection descriptor streams across schemes, pairing campaigns.
	Seed uint64

	// CheckpointCycles snapshots the golden trace every this-many
	// cycles during Prepare; each faulty run then forks from the
	// nearest checkpoint at or before its injection cycle instead of
	// fast-forwarding from the spread-window start. 0 disables
	// checkpoint forking. Results are bit-identical for every setting —
	// only the fork distance (and Prepare's memory footprint) changes.
	//
	// Execution-strategy knob, not a campaign parameter: excluded from
	// JSON so spec hashes, manifests, and journals are unaffected.
	CheckpointCycles uint64 `json:"-"`
	// EarlyExit enables reconvergence early-exit (divergence-bounded
	// replay): a faulty run is classified Masked as soon as its state
	// provably reconverges with the recorded golden trace, without
	// simulating the rest of the window. Bit-identical to the full run
	// by construction (see pipeline.StateDigest). Same JSON exclusion
	// as CheckpointCycles.
	EarlyExit bool `json:"-"`
}

// DefaultConfig returns the paper's parameters with a scaled-down
// injection count.
func DefaultConfig() Config {
	return Config{
		Injections:          400,
		WarmupCycles:        100000,
		SpreadCycles:        500,
		WindowInstr:         1000,
		FrontEndPct:         0.20,
		LSQPct:              0.08,
		InFlightBias:        0.4,
		DetectorWarmupInstr: 1_000_000,
		MaxCyclesPerRun:     60000,
		Seed:                0xfa17,
		CheckpointCycles:    64,
		EarlyExit:           true,
	}
}

// Injection is one pre-drawn fault descriptor. Drawing all descriptors
// from the seed up front (independent of simulator state) keeps
// campaigns with different detectors paired injection-by-injection.
type Injection struct {
	Structure   Structure
	CycleOffset uint64
	Bit         uint
	// InFlight directs a register-file fault at an in-flight
	// destination register (datapath emulation) instead of an arbitrary
	// allocated register.
	InFlight bool
	// SiteSeed selects the concrete site (which register, LSQ entry,
	// or RAT entry) among the candidates alive at injection time.
	SiteSeed uint64
}

// DrawInjections derives the descriptor list from cfg.
func DrawInjections(cfg Config) []Injection {
	rng := stats.NewRNG(cfg.Seed)
	out := make([]Injection, cfg.Injections)
	for i := range out {
		inj := Injection{
			CycleOffset: rng.Uint64n(cfg.SpreadCycles),
			Bit:         uint(rng.Intn(64)),
			SiteSeed:    rng.Uint64(),
		}
		p := rng.Float64()
		switch {
		case p < cfg.FrontEndPct:
			inj.Structure = RenameTable
		case p < cfg.FrontEndPct+cfg.LSQPct:
			inj.Structure = LSQ
		default:
			inj.Structure = RegFile
			inj.InFlight = rng.Bool(cfg.InFlightBias)
		}
		out[i] = inj
	}
	return out
}

// Result records one injected fault's consequence.
type Result struct {
	Injection Injection
	Outcome   Outcome
	// Hung marks a watchdog timeout (folded into Noisy).
	Hung bool
	// Detected is true when the detector declared a fault (the
	// singleton comparison of Section 3.5) during the window.
	Detected bool
	// Detector activity over the window in EXCESS of the golden run's
	// background (false-positive) activity over the same commit range —
	// the activity attributable to the fault, for the Figure-11
	// breakdown. Clamped at zero.
	Triggers, Suppressed, Replays, Rollbacks, Singletons uint64
}

// sub returns a-b clamped at zero.
func sub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// Campaign is the outcome of one injection campaign.
type Campaign struct {
	Config  Config
	Results []Result
}

// Classification returns the Figure-7 fractions.
func (c *Campaign) Classification() (masked, noisy, sdc int) {
	for _, r := range c.Results {
		switch r.Outcome {
		case Masked:
			masked++
		case Noisy:
			noisy++
		case SDC:
			sdc++
		}
	}
	return
}

// Prepared is a fault campaign after golden-run preparation: the
// warmed golden core, the golden architectural-hash trace, the
// detector's false-positive background, and (when enabled) the
// golden-checkpoint ring and reconvergence digests. Every field except
// the atomic perf counters is read-only after Prepare returns, so any
// number of goroutines may call Run concurrently — each injection
// clones the shared golden core and mutates only its own clone.
type Prepared struct {
	cfg    Config
	injs   []Injection
	golden *pipeline.Core
	// hashes and background are keyed by thread-0 commit count and are
	// never written after Prepare.
	hashes     map[uint64]uint64
	background map[uint64]detect.Stats
	// fpRate is the golden (fault-free) detector action rate over the
	// traced window — the campaign's false-positive measurement, free
	// because the golden run executes the window anyway.
	fpRate float64

	// baseCycle is golden's cycle at the clone point — the origin every
	// injection offset, checkpoint index, and digest index is relative
	// to.
	baseCycle uint64
	// ckpts[j] is a deep clone of the golden trace at baseCycle +
	// (j+1)*cfg.CheckpointCycles; empty when forking is off.
	ckpts []*pipeline.Core
	// digestEvery is the golden-digest cadence in cycles (0 when
	// EarlyExit is off); digests[i] is the golden trace's state at
	// baseCycle + i*digestEvery.
	digestEvery uint64
	digests     []digestRec
	// endRecs maps a thread-0 commit count to the golden trace's state
	// at the end of the cycle that retired it — the extrapolation
	// record an early-exiting run reads its final counters from.
	endRecs map[uint64]endRec

	perf perfCounters
}

// digestRec is one golden reconvergence digest plus the golden
// detector counters at the same cycle. A faulty run that matches all
// three has provably rejoined the golden trajectory.
type digestRec struct {
	pd  pipeline.StateDigest
	det detect.Stats
	fd  uint64 // pipeline Stats.FaultsDeclared
}

// endRec is the golden trace's state at the end of the cycle that
// retired a given thread-0 commit: the cycle itself (for the hang
// predicate) and the counters a converged run will end the window
// with.
type endRec struct {
	cycle uint64
	det   detect.Stats
	fd    uint64
}

// digestCadence is how many cycles apart golden reconvergence digests
// are recorded. Smaller catches reconvergence sooner (more window
// cycles saved) but costs more Prepare time and memory; 16 keeps the
// added golden-trace work under a few percent while bounding the
// post-reconvergence overshoot to 15 cycles.
const digestCadence = 16

// Prepare performs the golden-run phase of a campaign: detector
// fast-forward, pipeline warmup, and the golden hash/background trace
// over the injection spread plus run window. mk must build a fresh,
// deterministic core (program + detector). The returned Prepared is
// immutable and safe for concurrent Prepared.Run calls.
func Prepare(mk func() *pipeline.Core, cfg Config) (*Prepared, error) {
	golden := mk()
	golden.WarmDetector(cfg.DetectorWarmupInstr)
	golden.Run(cfg.WarmupCycles)
	if golden.AllHalted() {
		return nil, fmt.Errorf("fault: golden run halted during warmup")
	}
	if exc, msg := golden.Excepted(0); exc {
		return nil, fmt.Errorf("fault: golden run excepted during warmup: %s", msg)
	}

	// Record, at every commit count the faulty runs can target, the
	// golden architectural hash and the golden detector counters (the
	// false-positive background against which fault-attributable
	// activity is measured). The trace runs on a throwaway clone so the
	// shared golden core itself is never stepped — and therefore never
	// mutated — after this function returns.
	gold := golden.Clone()
	p := &Prepared{
		cfg:        cfg,
		injs:       DrawInjections(cfg),
		golden:     golden,
		hashes:     make(map[uint64]uint64),
		background: make(map[uint64]detect.Stats),
		baseCycle:  golden.Cycle(),
	}
	hashes, background := p.hashes, p.background
	// pendingCommits collects the thread-0 commit counts retired inside
	// the cycle being stepped; the step helper drains them into endRecs
	// once the cycle finishes, so each record carries true end-of-cycle
	// counters (commit-hook counters are mid-cycle: later commits and
	// completion checks in the same cycle still move them).
	var pendingCommits []uint64
	gold.SetCommitHook(func(tid int, count uint64) {
		if tid == 0 {
			hashes[count] = gold.ArchHash(0)
			if d := gold.Detector(); d != nil {
				background[count] = d.Stats()
			}
			pendingCommits = append(pendingCommits, count)
		}
	})
	// Anchor the background at the clone point so injections at offset
	// zero (injCount == warmup commit count) subtract correctly.
	hashes[golden.Committed(0)] = golden.ArchHash(0)
	if d := golden.Detector(); d != nil {
		background[golden.Committed(0)] = d.Stats()
	}
	if cfg.EarlyExit {
		p.digestEvery = digestCadence
		p.endRecs = make(map[uint64]endRec)
		p.digests = append(p.digests, digestRec{
			pd:  gold.CaptureDigest(),
			det: gold.DetectorStats(),
			fd:  gold.Stats().FaultsDeclared,
		})
	}
	// step advances the golden trace one cycle and records the
	// reconvergence bookkeeping at end-of-cycle boundaries: a digest
	// every digestCadence cycles, an endRec per retired instruction,
	// and a deep checkpoint every CheckpointCycles cycles inside the
	// injection spread.
	step := func() {
		gold.Step()
		off := gold.Cycle() - p.baseCycle
		if p.digestEvery != 0 {
			if off%p.digestEvery == 0 {
				p.digests = append(p.digests, digestRec{
					pd:  gold.CaptureDigest(),
					det: gold.DetectorStats(),
					fd:  gold.Stats().FaultsDeclared,
				})
			}
			for _, cnt := range pendingCommits {
				p.endRecs[cnt] = endRec{
					cycle: gold.Cycle(),
					det:   gold.DetectorStats(),
					fd:    gold.Stats().FaultsDeclared,
				}
			}
		}
		pendingCommits = pendingCommits[:0]
		if n := cfg.CheckpointCycles; n != 0 && off%n == 0 && off+1 <= cfg.SpreadCycles {
			p.ckpts = append(p.ckpts, gold.Clone())
		}
	}
	ds0 := gold.DetectorStats()
	commits0 := gold.Committed(0)
	for i := uint64(0); i < cfg.SpreadCycles; i++ {
		step()
	}
	maxInjCount := gold.Committed(0)
	target := maxInjCount + cfg.WindowInstr + 64
	for gold.Committed(0) < target && !gold.AllHalted() {
		step()
	}
	if exc, msg := gold.Excepted(0); exc {
		return nil, fmt.Errorf("fault: golden run excepted in window: %s", msg)
	}
	ds := gold.DetectorStats()
	if commits := gold.Committed(0) - commits0; commits > 0 {
		p.fpRate = float64(ds.Replays+ds.Rollbacks+ds.Singletons-
			ds0.Replays-ds0.Rollbacks-ds0.Singletons) / float64(commits)
	}
	// Every fork origin is frozen from here on; anchor them all to the
	// spread-start snapshot so a worker's per-run hierarchy restore
	// rewrites only the L2 lines its last window touched instead of the
	// whole tag store (mem.Cache.SetBaseline).
	p.golden.SetCloneBaseline(p.golden)
	for _, ck := range p.ckpts {
		ck.SetCloneBaseline(p.golden)
	}
	return p, nil
}

// Config returns the campaign configuration.
func (p *Prepared) Config() Config { return p.cfg }

// Injections returns the pre-drawn descriptor list. The slice is shared
// and must not be modified.
func (p *Prepared) Injections() []Injection { return p.injs }

// FPRate returns the golden run's fault-free detector action rate
// (replays + rollbacks + singletons per committed instruction) over the
// traced window.
func (p *Prepared) FPRate() float64 { return p.fpRate }

// Perf aggregates the replay-acceleration effect over every run so far
// on one Prepared: how much pre-injection fast-forwarding checkpoint
// forking removed and how many runs reconvergence early-exit cut
// short.
type Perf struct {
	// Runs is the number of completed (uncancelled) injection runs.
	Runs uint64
	// EarlyExits counts runs classified by reconvergence early-exit.
	EarlyExits uint64
	// ForkCyclesSaved is the total pre-injection cycles not simulated
	// because runs forked from a checkpoint; OffsetCycles is the total
	// they would have simulated from the spread start.
	ForkCyclesSaved uint64
	OffsetCycles    uint64
}

// EarlyExitFrac returns the fraction of runs ended by reconvergence
// early-exit.
func (pf Perf) EarlyExitFrac() float64 {
	if pf.Runs == 0 {
		return 0
	}
	return float64(pf.EarlyExits) / float64(pf.Runs)
}

// ForkSavedFrac returns the fraction of pre-injection fast-forward
// cycles eliminated by checkpoint forking.
func (pf Perf) ForkSavedFrac() float64 {
	if pf.OffsetCycles == 0 {
		return 0
	}
	return float64(pf.ForkCyclesSaved) / float64(pf.OffsetCycles)
}

// perfCounters is Perf's concurrent-update form: Run callers on any
// number of goroutines add to it without coordination.
type perfCounters struct {
	runs            atomic.Uint64
	earlyExits      atomic.Uint64
	forkCyclesSaved atomic.Uint64
	offsetCycles    atomic.Uint64
}

// Perf returns a snapshot of the acceleration counters.
func (p *Prepared) Perf() Perf {
	return Perf{
		Runs:            p.perf.runs.Load(),
		EarlyExits:      p.perf.earlyExits.Load(),
		ForkCyclesSaved: p.perf.forkCyclesSaved.Load(),
		OffsetCycles:    p.perf.offsetCycles.Load(),
	}
}

// Run executes a campaign serially: Prepare once, then one Prepared.Run
// per descriptor in order, each on a deep clone. mk must build a fresh, deterministic core
// (program + detector); the same mk with the same cfg yields identical
// results. It is the one-cell reference that tests and examples compare
// the campaign engine against — campaign.Engine is the parallel,
// resumable path and produces bit-identical results on any worker
// count.
func Run(mk func() *pipeline.Core, cfg Config) (*Campaign, error) {
	p, err := Prepare(mk, cfg)
	if err != nil {
		return nil, err
	}
	camp := &Campaign{Config: cfg, Results: make([]Result, 0, len(p.injs))}
	for _, inj := range p.injs {
		res, _ := p.Run(nil, inj, nil, nil) // a nil ctx never cancels: no error
		camp.Results = append(camp.Results, res)
	}
	return camp, nil
}

// cancelPollSteps is how many simulated cycles a faulty run advances
// between context polls in Run. Small enough that cancellation
// lands well inside one injection (a hung run is MaxCyclesPerRun
// cycles), large enough that the poll is free.
const cancelPollSteps = 512

// pollCancel is the shared cancellation poll of Run's fast-forward
// and window loops: every cancelPollSteps iterations it surfaces ctx's
// error so a run aborts mid-injection instead of running out the
// window. A nil ctx disables polling; an uncancelled run is untouched
// — the poll is pure control flow.
func pollCancel(ctx context.Context, i uint64) error {
	if ctx != nil && i%cancelPollSteps == 0 {
		return ctx.Err()
	}
	return nil
}

// actionTracer forwards the faulty run's detector actions (replay,
// rollback, singleton) to an obs sink and marks the first one — the
// detection point — with a "detect" instant. It is attached to the
// clone only when a sink is present, so untraced runs never pay for
// it.
type actionTracer struct {
	sink     obs.Sink
	detected bool
}

// Trace implements pipeline.Tracer.
func (t *actionTracer) Trace(ev pipeline.TraceEvent) {
	switch ev.Stage {
	case pipeline.TraceReplay, pipeline.TraceRollback, pipeline.TraceSingleton:
	default:
		return
	}
	obs.Instant(t.sink, ev.Stage.String(), ev.Cycle, "")
	if !t.detected {
		t.detected = true
		obs.Instant(t.sink, "detect", ev.Cycle, ev.Stage.String())
	}
}

// Run executes one injection — the campaign's single injection entry
// point. It forks a faulty core off the golden trace (from the nearest
// checkpoint at or before the injection cycle when forking is on),
// advances to the injection cycle, flips the bit, runs the window, and
// classifies — exiting the window early when the faulty state provably
// reconverges with the recorded golden trace. Every Prepared field it
// reads is immutable; the fork is this call's private mutable state, so
// any number of goroutines may call Run on one Prepared.
//
// The three optional arguments change only control flow, never the
// Result:
//   - ctx: polled every cancelPollSteps simulated cycles, so a
//     cancelled run aborts mid-injection with ctx.Err() instead of
//     running out the window (or the hang watchdog). Nil disables
//     polling.
//   - sink: receives the run's lifecycle events — an "inject" instant
//     at the flip (Cycle = injection cycle, Arg = the structure), a
//     "fork" instant when the run forked from a checkpoint, an instant
//     per detector action in the window ("replay", "rollback",
//     "singleton"), a "detect" instant at the first such action (Arg =
//     the action kind), and an "early-exit" instant on reconvergence.
//     Nil emits nothing; the disabled path costs one pointer test.
//   - arena: rebuilds the faulty core in place instead of deep-cloning
//     the golden state, making successive runs nearly allocation-free.
//     One arena serves one goroutine at a time and survives switches
//     between Prepareds (mismatched state falls back to fresh
//     allocation). Nil means a deep clone.
func (p *Prepared) Run(ctx context.Context, inj Injection, sink obs.Sink, arena *pipeline.SnapshotArena) (Result, error) {
	cfg := p.cfg

	// Fork from the nearest golden checkpoint at or before the
	// injection cycle: the fast-forward shrinks from O(CycleOffset) to
	// O(CycleOffset mod CheckpointCycles). The checkpoint is a
	// deterministic clone of the same trace the spread-start snapshot
	// would have stepped through, so the forked run is bit-identical.
	origin := p.golden
	forkOff := uint64(0)
	if n := cfg.CheckpointCycles; n != 0 {
		if j := inj.CycleOffset / n; j > 0 && len(p.ckpts) > 0 {
			if j > uint64(len(p.ckpts)) {
				j = uint64(len(p.ckpts))
			}
			origin = p.ckpts[j-1]
			forkOff = j * n
		}
	}
	f := origin.Snapshot(arena)
	for i, ff := uint64(0), inj.CycleOffset-forkOff; i < ff; i++ {
		if err := pollCancel(ctx, i); err != nil {
			return Result{}, err
		}
		f.Step()
	}
	applyInjection(f, inj)
	if sink != nil {
		obs.Instant(sink, "inject", f.Cycle(), inj.Structure.String())
		if forkOff != 0 {
			obs.Instant(sink, "fork", f.Cycle(), strconv.FormatUint(forkOff, 10))
		}
		f.SetTracer(&actionTracer{sink: sink})
	}

	var ds0 detect.Stats
	if d := f.Detector(); d != nil {
		ds0 = d.Stats()
	}
	ps0 := f.Stats()

	injCount := f.Committed(0)
	target := injCount + cfg.WindowInstr
	done := false
	var hash uint64
	// The hash must be captured inside the commit hook — at the exact
	// retirement boundary — to line up with the golden trace, which is
	// recorded the same way (later commits in the same cycle would skew
	// a post-cycle hash).
	f.SetCommitHook(func(tid int, count uint64) {
		if tid == 0 && count == target {
			done = true
			hash = f.ArchHash(0)
		}
	})

	res := Result{Injection: inj}
	start := f.Cycle()
	// Reconvergence early-exit precondition: the golden trace retired
	// this run's target commit at er.cycle, and a run that rejoins the
	// golden trajectory finishes there — so require that a converged
	// run would also have completed under the legacy hang watchdog
	// (er.cycle-start is exactly the legacy loop's completion-cycle
	// test). Then matching a golden digest proves the rest of the
	// window replays the golden trace: the hash comparison at target
	// must come out equal (Masked) and the final counters are the
	// golden trace's own, recorded in er.
	er, erOK := endRec{}, false
	if p.digestEvery != 0 {
		er, erOK = p.endRecs[target]
	}
	canEarly := erOK && er.cycle-start <= cfg.MaxCyclesPerRun
	earlyExit := false
	// Failed reconvergence checks back off exponentially (capped): a
	// run whose divergence is sticky — a flipped stale field that
	// neither propagates nor gets overwritten — would otherwise pay a
	// full structural fold at every digest boundary for its whole
	// window. Backing off is sound because a reconverged clone is the
	// golden trajectory and keeps matching at every later boundary, so
	// a delayed check fires with the identical result.
	nextIdx, stride := uint64(0), uint64(1)
	for !done {
		cyc := f.Cycle()
		if cyc-start >= cfg.MaxCyclesPerRun || f.AllHalted() {
			break
		}
		if err := pollCancel(ctx, cyc-start); err != nil {
			return Result{}, err
		}
		if canEarly && (cyc-p.baseCycle)%p.digestEvery == 0 {
			if idx := (cyc - p.baseCycle) / p.digestEvery; idx >= nextIdx && idx < uint64(len(p.digests)) {
				rec := &p.digests[idx]
				if rec.pd.Cycle == cyc && f.DetectorStats() == rec.det &&
					f.Stats().FaultsDeclared == rec.fd && f.MatchesDigest(&rec.pd) {
					earlyExit = true
					break
				}
				nextIdx = idx + stride
				if stride < 16 {
					stride <<= 1
				}
			}
		}
		f.Step()
	}
	if earlyExit && sink != nil {
		obs.Instant(sink, "early-exit", f.Cycle(), strconv.FormatUint(er.cycle-f.Cycle(), 10))
	}

	if d := f.Detector(); d != nil {
		ds := d.Stats()
		if earlyExit {
			// The run matched the golden digest counters exactly, so its
			// window finishes with exactly the golden trace's end-of-run
			// counters.
			ds = er.det
		}
		// Subtract the golden run's background activity over the same
		// commit range so the counters reflect fault-attributable work.
		var bg detect.Stats
		if b1, ok := p.background[target]; ok {
			b0 := p.background[injCount]
			bg = detect.Stats{
				Triggers:   b1.Triggers - b0.Triggers,
				Suppressed: b1.Suppressed - b0.Suppressed,
				Replays:    b1.Replays - b0.Replays,
				Rollbacks:  b1.Rollbacks - b0.Rollbacks,
				Singletons: b1.Singletons - b0.Singletons,
			}
		}
		res.Triggers = sub(ds.Triggers-ds0.Triggers, bg.Triggers)
		res.Suppressed = sub(ds.Suppressed-ds0.Suppressed, bg.Suppressed)
		res.Replays = sub(ds.Replays-ds0.Replays, bg.Replays)
		res.Rollbacks = sub(ds.Rollbacks-ds0.Rollbacks, bg.Rollbacks)
		res.Singletons = sub(ds.Singletons-ds0.Singletons, bg.Singletons)
	}
	fd := f.Stats().FaultsDeclared
	if earlyExit {
		fd = er.fd
	}
	res.Detected = fd > ps0.FaultsDeclared

	p.perf.runs.Add(1)
	p.perf.forkCyclesSaved.Add(forkOff)
	p.perf.offsetCycles.Add(inj.CycleOffset)

	if earlyExit {
		// Reconverged: the run's remaining trajectory is the golden
		// trace's, whose hash at target equals goldenHash[target] by
		// construction, and which neither excepts nor hangs in the
		// window (Prepare errors out otherwise).
		p.perf.earlyExits.Add(1)
		res.Outcome = Masked
		return res, nil
	}
	if exc, _ := f.Excepted(0); exc {
		res.Outcome = Noisy
		return res, nil
	}
	if !done {
		res.Outcome = Noisy
		res.Hung = true
		return res, nil
	}
	want, ok := p.hashes[target]
	if ok && hash == want {
		res.Outcome = Masked
	} else {
		res.Outcome = SDC
	}
	return res, nil
}

// noopInjections suppresses the actual flip (tandem-determinism test
// hook).
var noopInjections = false

// applyInjection flips the descriptor's bit in the live structure.
// When the preferred structure has no live site (an empty LSQ), the
// fault falls back to the register file, keeping the campaign size
// fixed.
func applyInjection(c *pipeline.Core, inj Injection) {
	if noopInjections {
		return
	}
	rng := stats.NewRNG(inj.SiteSeed)
	switch inj.Structure {
	case RenameTable:
		// Architectural registers r1..r47 (never the zero register).
		r := isa.Reg(1 + rng.Intn(isa.NumArchRegs-1))
		c.FlipRATBit(0, r, inj.Bit)
		return
	case LSQ:
		sites := c.LSQSites()
		if len(sites) > 0 {
			site := sites[rng.Intn(len(sites))]
			field := pipeline.LSQAddr
			if site.IsStore && rng.Bool(0.5) {
				field = pipeline.LSQData
			}
			c.FlipLSQBit(site, field, inj.Bit)
			return
		}
		// fall through to the register file
	}
	// The register-file population is the whole physical file (the
	// paper's Section-4 model): flips in free registers are overwritten
	// at the next allocation and classify as masked. The InFlight share
	// emulates back-end datapath faults by targeting live in-flight
	// destination values instead.
	regs := c.AllRegs()
	if inj.InFlight {
		if inflight := c.InFlightDestRegs(); len(inflight) > 0 {
			regs = inflight
		}
	}
	if len(regs) == 0 {
		return
	}
	c.FlipRegisterBit(regs[rng.Intn(len(regs))], inj.Bit)
}
