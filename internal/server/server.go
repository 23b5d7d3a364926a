// Package server is the campaign-serving daemon behind cmd/fhserved:
// an HTTP front-end that accepts campaign specs, runs them on a
// bounded job queue backed by the campaign engine's worker pool, and
// serves status, streaming progress, completed artifact bundles, and
// Prometheus-format metrics.
//
// Jobs are identified by a canonical spec hash (normalized spec JSON +
// seed + git commit), so identical submissions deduplicate: a spec
// that is already queued or running attaches to the in-flight job, and
// one that already completed is served from the on-disk result cache
// without re-executing. Golden-run preparations are shared across jobs
// through a fault.PreparedCache. On SIGTERM the daemon drains: running
// engines cancel promptly (mid-injection), their journals stay on
// disk, and a restarted daemon rescans its data root and resumes every
// unfinished job through the engine's resume path.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"faulthound/internal/campaign"
	"faulthound/internal/fault"
	"faulthound/internal/obs/metrics"
	"faulthound/internal/pipeline"
)

// StatusName is the per-job state file inside a job directory. It
// carries the normalized spec and last known state so a restarted
// daemon can rebuild its job table (and requeue unfinished work)
// without any external database.
const StatusName = "status.json"

// persistedStatus is the on-disk form of a job's state.
type persistedStatus struct {
	SpecHash   string        `json:"spec_hash"`
	State      string        `json:"state"`
	Spec       campaign.Spec `json:"spec"`
	Error      string        `json:"error,omitempty"`
	CreatedAt  string        `json:"created_at"`
	FinishedAt string        `json:"finished_at,omitempty"`
}

// Runner executes one campaign on behalf of the daemon's job loop.
// The engine arrives fully wired (normalized spec, factory,
// progress/observer hooks); dir is the job's bundle directory and
// resume says whether an on-disk manifest/journal should be continued.
// The default runner is the local engine; cmd/fhserved -coordinator
// swaps in cluster.Coordinator.RunCampaign to shard the campaign
// across workers instead.
type Runner func(ctx context.Context, eng *campaign.Engine, dir string, resume bool) (*campaign.Outcome, error)

// Config parameterizes a Server.
type Config struct {
	// Root is the data directory: one subdirectory per job, named by
	// spec hash, holding the artifact bundle plus status.json.
	Root string
	// Factory resolves benchmark/scheme names to core constructors
	// (harness.Options.CampaignFactory in the daemon).
	Factory campaign.CoreFactory
	// BaseFault fills zero-valued fault fields of submitted specs.
	BaseFault fault.Config
	// Jobs is the number of concurrently executing campaigns (each one
	// fans its injections over its own worker pool). Default 1.
	Jobs int
	// Workers overrides every job's injection worker pool size
	// (0 keeps the spec's choice, which itself defaults to GOMAXPROCS).
	Workers int
	// QueueDepth bounds the pending-job queue; submissions beyond it
	// are rejected with a structured 429. Default 64.
	QueueDepth int
	// MaxInjections rejects specs whose total injection count
	// (cells × injections) exceeds it; 0 means unlimited.
	MaxInjections int
	// GitCommit stamps spec hashes; empty means the checkout's HEAD.
	GitCommit string
	// Log receives structured operational logs (job state transitions
	// at Debug/Info, anomalies at Warn/Error); nil discards them.
	Log *slog.Logger
	// Runner overrides campaign execution (nil runs the engine
	// in-process; the coordinator mode shards across workers).
	Runner Runner
	// Prepared shares a golden-preparation cache with other subsystems
	// (the cluster worker); nil builds a private one.
	Prepared *fault.PreparedCache
	// Timing measures fault-free perf/energy per cell for the optimize
	// endpoint's overhead objectives (harness.Options.TimingRunner in
	// the daemon); nil answers POST /v1/optimize with 503.
	Timing campaign.TimingRunner
	// Role names this daemon's cluster role for /healthz:
	// "single" (default), "coordinator", or "worker".
	Role string
	// Ready overrides the /healthz readiness verdict; nil means always
	// ready. The detail map is merged into the health payload.
	Ready func() (bool, map[string]any)
	// RateLimit admits at most this many submissions per second
	// (bursting to RateBurst) before the daemon answers 429; 0 disables
	// the gate. Queue overflow 429s are always on.
	RateLimit float64
	// RateBurst is the admission gate's burst size; default 10.
	RateBurst int
}

// Server is the campaign-serving daemon's engine-facing half; Handler
// exposes it over HTTP.
type Server struct {
	cfg       Config
	log       *slog.Logger
	reg       *metrics.Registry
	prepared  *fault.PreparedCache
	admission *TokenBucket

	mu    sync.Mutex
	jobs  map[string]*job // by spec hash
	order []string        // submission order, for listing
	queue chan *job

	// optMu serializes Pareto searches (the driver is single-threaded
	// by contract; parallelism lives in each evaluation's worker pool).
	optMu sync.Mutex

	runCtx  context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	started bool

	start time.Time

	// Metrics series (names documented in docs/SERVER.md).
	mQueued      *metrics.Value
	mRunning     *metrics.Value
	mSubmitted   *metrics.Value
	mExecuted    *metrics.Value
	mFailed      *metrics.Value
	mCacheHits   *metrics.Value
	mResumedJobs *metrics.Value
	mInjections  *metrics.Value
	mInjRate     *metrics.Value
	mInflight    *metrics.Value
	mPrepHits    *metrics.Value
	mPrepMisses  *metrics.Value
	mOptRuns     *metrics.Value
	mOptHits     *metrics.Value
	mQueueWait   *metrics.Histogram

	// injections-per-second window state (guarded by rateMu).
	rateMu       sync.Mutex
	rateLastTime time.Time
	rateLastInj  float64
}

// New builds a Server over cfg.Root, rescanning it for completed
// bundles (which become cache entries) and unfinished jobs (which are
// requeued, resuming from their journals once Start is called).
func New(cfg Config) (*Server, error) {
	if cfg.Factory == nil {
		return nil, fmt.Errorf("server: config has no core factory")
	}
	if cfg.Root == "" {
		return nil, fmt.Errorf("server: config has no data root")
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.GitCommit == "" {
		cfg.GitCommit = campaign.GitCommit()
	}
	if err := os.MkdirAll(cfg.Root, 0o755); err != nil {
		return nil, err
	}
	log := cfg.Log
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	prepared := cfg.Prepared
	if prepared == nil {
		prepared = fault.NewPreparedCache()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		log:      log,
		reg:      metrics.NewRegistry(),
		prepared: prepared,
		jobs:     make(map[string]*job),
		runCtx:   ctx,
		cancel:   cancel,
		start:    time.Now(),
	}
	if cfg.RateLimit > 0 {
		burst := cfg.RateBurst
		if burst <= 0 {
			burst = 10
		}
		s.admission = NewTokenBucket(cfg.RateLimit, burst)
	}
	s.mQueued = s.reg.Gauge("fhserved_jobs_queued", "Jobs waiting in the queue.")
	s.mRunning = s.reg.Gauge("fhserved_jobs_running", "Jobs currently executing.")
	s.mSubmitted = s.reg.Counter("fhserved_jobs_submitted_total", "Spec submissions accepted (including cache hits).")
	s.mExecuted = s.reg.Counter("fhserved_jobs_done_total", "Jobs executed to completion by this process.")
	s.mFailed = s.reg.Counter("fhserved_jobs_failed_total", "Jobs that ended in an error.")
	s.mCacheHits = s.reg.Counter("fhserved_cache_hits_total", "Submissions served by spec-hash dedup or the result cache.")
	s.mResumedJobs = s.reg.Counter("fhserved_jobs_resumed_total", "Jobs requeued from journals at startup.")
	s.mInjections = s.reg.Counter("fhserved_injections_total", "Injections executed (journal replays excluded).")
	s.mInjRate = s.reg.Gauge("fhserved_injections_per_second", "Injection throughput since the previous /metrics scrape.")
	s.mInflight = s.reg.Gauge("fhserved_injections_inflight", "Faulty runs executing right now, across all jobs.")
	s.mPrepHits = s.reg.Counter("fhserved_prepared_cache_hits_total", "Golden-run preparations reused from the prepared cache.")
	s.mPrepMisses = s.reg.Counter("fhserved_prepared_cache_misses_total", "Golden-run preparations executed (cache fills).")
	s.mOptRuns = s.reg.Counter("fhserved_optimize_runs_total", "Pareto searches executed to completion.")
	s.mOptHits = s.reg.Counter("fhserved_optimize_cache_hits_total", "Optimize requests served from the request-hash cache.")
	s.mQueueWait = s.reg.Histogram("fhserved_job_queue_wait_seconds",
		"Seconds a job waited between submission and execution start.", metrics.ExpBuckets(0.01, 2, 16))
	// Pre-register both reject reasons so scrapes render zeros before
	// the first rejection.
	for _, reason := range []string{"queue_full", "rate"} {
		s.reg.CounterWith(admissionRejectsName, admissionRejectsHelp, map[string]string{"reason": reason})
	}
	s.rateLastTime = s.start

	if err := s.rescan(); err != nil {
		cancel()
		return nil, err
	}
	// Size the queue after the rescan so every requeued job fits.
	pending := 0
	for _, id := range s.order {
		if s.jobs[id].state == StateQueued {
			pending++
		}
	}
	s.queue = make(chan *job, cfg.QueueDepth+pending)
	for _, id := range s.order {
		if j := s.jobs[id]; j.state == StateQueued {
			s.queue <- j
		}
	}
	return s, nil
}

// rescan rebuilds the job table from cfg.Root: done jobs become cache
// entries, anything unfinished is marked queued (resuming when a
// manifest/journal exists).
func (s *Server) rescan() error {
	entries, err := os.ReadDir(s.cfg.Root)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		// The optimize cache is keyed by request hash, not spec hash:
		// its directories are not jobs.
		if e.IsDir() && e.Name() != OptimizeDirName {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		dir := filepath.Join(s.cfg.Root, name)
		var ps persistedStatus
		b, err := os.ReadFile(filepath.Join(dir, StatusName))
		if err != nil {
			s.log.Warn("skipping job dir: unreadable status file", "dir", name, "err", err)
			continue
		}
		if err := json.Unmarshal(b, &ps); err != nil || ps.SpecHash == "" {
			s.log.Warn("skipping job dir: malformed status file", "dir", name)
			continue
		}
		j := newJob(ps.SpecHash, ps.Spec, dir)
		j.created = time.Now()
		switch ps.State {
		case StateDone:
			if bundleComplete(dir) {
				j.done = j.total
				j.setState(StateDone, nil) // close doneCh for waiters
			} else {
				s.log.Warn("job marked done but bundle incomplete; requeueing", "job", name)
				j.state = StateQueued
				j.resume = hasManifest(dir)
			}
		case StateFailed:
			j.state = StateFailed
			if ps.Error != "" {
				j.err = fmt.Errorf("%s", ps.Error)
			}
			j.setState(StateFailed, j.err)
		default: // queued, running, interrupted: unfinished
			j.state = StateQueued
			j.resume = hasManifest(dir)
			if j.resume {
				s.mResumedJobs.Inc()
				s.log.Info("requeueing unfinished job", "job", ps.SpecHash, "resume", true)
			}
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if j.state == StateQueued {
			s.mQueued.Add(1)
		}
	}
	return nil
}

// Start launches the job runners. It is separate from New so tests
// (and the daemon) can inspect the rescanned state first.
func (s *Server) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	for i := 0; i < s.cfg.Jobs; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				select {
				case <-s.runCtx.Done():
					return
				case j := <-s.queue:
					s.runJob(j)
				}
			}
		}()
	}
}

// Drain stops the server gracefully: running engines are cancelled
// (their journals persist for resume), queued jobs stay queued on
// disk, and the runners exit. It returns when every runner has
// stopped or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.cancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain timed out: %w", ctx.Err())
	}
}

// Unfinished lists the spec hashes whose jobs are not terminal — what
// a restarted daemon will resume.
func (s *Server) Unfinished() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, id := range s.order {
		switch s.jobs[id].status().State {
		case StateDone, StateFailed:
		default:
			out = append(out, id)
		}
	}
	return out
}

// Submit normalizes and hashes spec, then returns the matching job:
// an existing one (cache hit — done, queued, or running all dedup) or
// a freshly enqueued one. The bool reports whether the submission was
// served by dedup/cache. A failed job is retried, not served from
// cache.
func (s *Server) Submit(spec campaign.Spec) (*job, bool, error) {
	norm, err := NormalizeSpec(spec, s.cfg.BaseFault)
	if err != nil {
		return nil, false, wrapBadSpec(err)
	}
	if len(norm.Benchmarks) == 0 {
		return nil, false, errBadSpec("spec has no benchmarks")
	}
	if norm.Fault.Injections <= 0 {
		return nil, false, errBadSpec("spec has no injections")
	}
	cells := norm.Cells()
	if s.cfg.MaxInjections > 0 && len(cells)*norm.Fault.Injections > s.cfg.MaxInjections {
		return nil, false, errBadSpec(fmt.Sprintf("spec wants %d injections, limit is %d",
			len(cells)*norm.Fault.Injections, s.cfg.MaxInjections))
	}
	// Resolve every cell up front so an unknown bench or scheme is a
	// 400 at submit time, not a failed job later.
	for _, c := range cells {
		if _, err := s.cfg.Factory(c.Bench, c.Scheme); err != nil {
			return nil, false, wrapBadSpec(err)
		}
	}
	id := SpecHash(norm, s.cfg.GitCommit)
	// The run ID derives from the hash so a cold run and a cache hit
	// (and an uninterrupted vs. drained-and-resumed run) produce
	// byte-identical summary.json.
	norm.RunID = "job-" + id[:12]
	if s.cfg.Workers > 0 {
		norm.Workers = s.cfg.Workers
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.mSubmitted.Inc()
	if j := s.jobs[id]; j != nil {
		st := j.status()
		if st.State != StateFailed {
			s.mCacheHits.Inc()
			return j, true, nil
		}
		// Retry a failed job in place.
		j.mu.Lock()
		j.resume = hasManifest(j.dir)
		j.done, j.resumed = 0, 0
		j.doneCh = make(chan struct{})
		j.mu.Unlock()
		j.setState(StateQueued, nil)
		if err := s.enqueueLocked(j); err != nil {
			return nil, false, err
		}
		return j, false, nil
	}

	dir := filepath.Join(s.cfg.Root, id)
	j := newJob(id, norm, dir)
	j.created = time.Now()
	if err := s.persist(j); err != nil {
		return nil, false, err
	}
	if err := s.enqueueLocked(j); err != nil {
		return nil, false, err
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	return j, false, nil
}

// errQueueFull is returned (wrapped) when the bounded queue rejects a
// submission.
var errQueueFull = fmt.Errorf("server: job queue is full")

// Admission-gate rejection counter (reason="queue_full" | "rate").
const (
	admissionRejectsName = "fh_admission_rejects_total"
	admissionRejectsHelp = "Submissions rejected with 429 by the admission gate, by reason."
)

// rejectAdmission counts one admission-gate rejection.
func (s *Server) rejectAdmission(reason string) {
	s.reg.CounterWith(admissionRejectsName, admissionRejectsHelp, map[string]string{"reason": reason}).Inc()
}

// badSpecError marks a submission rejected at validation time. It
// wraps the underlying cause so callers (the HTTP layer) can inspect
// the chain — a scheme.IsSpecError cause turns the 400 body into the
// structured known-schemes form.
type badSpecError struct{ err error }

func errBadSpec(msg string) error     { return &badSpecError{errors.New(msg)} }
func wrapBadSpec(err error) error     { return &badSpecError{err} }
func (e *badSpecError) Error() string { return "server: bad spec: " + e.err.Error() }
func (e *badSpecError) Unwrap() error { return e.err }
func isBadSpec(err error) bool        { var b *badSpecError; return errors.As(err, &b) }
func isQueueFull(err error) bool      { return err == errQueueFull }
func (s *Server) enqueueLocked(j *job) error {
	select {
	case s.queue <- j:
		s.mQueued.Add(1)
		return nil
	default:
		return errQueueFull
	}
}

// Job returns a job by spec hash.
func (s *Server) Job(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Jobs lists all jobs in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	return out
}

// Registry exposes the metrics registry (the /metrics handler and the
// daemon's own gauges write through it).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// runJob executes one campaign through the engine, reporting progress
// into the job and the metrics registry.
func (s *Server) runJob(j *job) {
	s.mQueued.Add(-1)
	s.mRunning.Add(1)
	defer s.mRunning.Add(-1)
	s.mQueueWait.Observe(time.Since(j.created).Seconds())
	j.setState(StateRunning, nil)
	s.persist(j)
	s.log.Debug("job starting", "job", j.id,
		"cells", len(j.spec.Cells()), "injections", j.spec.Fault.Injections, "resume", j.resume)

	// Register the job's labeled series up front so a scrape during the
	// run (or after a run with zero detections) still renders them.
	for _, c := range j.spec.Cells() {
		labels := map[string]string{"bench": c.Bench, "scheme": c.Scheme.String()}
		s.reg.HistogramWith(injDurName, injDurHelp, injDurBuckets(), labels)
		s.reg.HistogramWith(detLatName, detLatHelp, detLatBuckets(), labels)
		for _, o := range []string{"masked", "noisy", "sdc"} {
			s.reg.CounterWith(outcomeName, outcomeHelp,
				map[string]string{"bench": c.Bench, "scheme": c.Scheme.String(), "outcome": o})
		}
	}

	eng := &campaign.Engine{
		Spec:    j.spec,
		Factory: s.cfg.Factory,
		Progress: func(done, total int) {
			j.progress(done, total)
			s.mInjections.Inc()
		},
		Prepare: func(c campaign.Cell, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error) {
			return s.prepared.Get(fault.PreparedKey{Bench: c.Bench, Scheme: c.Scheme.String(), Cfg: cfg}, mk)
		},
		Warnf: func(format string, args ...any) { s.log.Warn(fmt.Sprintf(format, args...)) },
		Obs:   newMetricsSink(s.reg, s.mInflight),
	}

	run := s.cfg.Runner
	if run == nil {
		run = func(ctx context.Context, eng *campaign.Engine, dir string, resume bool) (*campaign.Outcome, error) {
			if resume {
				return eng.Resume(ctx, dir)
			}
			return eng.Run(ctx, dir, false)
		}
	}
	out, err := run(s.runCtx, eng, j.dir, j.resume)
	switch {
	case err != nil && s.runCtx.Err() != nil:
		// Drain: the journal holds every completed injection; a
		// restarted daemon requeues this job as a resume.
		j.setState(StateInterrupted, nil)
		s.persist(j)
		s.log.Info("job interrupted by drain", "job", j.id, "journal", filepath.Join(j.dir, campaign.JournalName))
	case err != nil:
		s.mFailed.Inc()
		j.setState(StateFailed, err)
		s.persist(j)
		s.log.Error("job failed", "job", j.id, "err", err)
	default:
		j.mu.Lock()
		j.resumed = out.Resumed
		j.done = j.total
		j.mu.Unlock()
		s.mExecuted.Inc()
		s.recordSummary(out.Summary)
		j.setState(StateDone, nil)
		s.persist(j)
		s.log.Info("job done", "job", j.id, "elapsed", out.Elapsed.Round(time.Millisecond), "resumed", out.Resumed)
	}
}

// recordSummary feeds per-cell results into the labeled gauges.
func (s *Server) recordSummary(sum *campaign.Summary) {
	for _, c := range sum.Cells {
		labels := map[string]string{"bench": c.Bench, "scheme": c.Scheme}
		s.reg.GaugeWith("fhserved_bench_fp_rate",
			"Fault-free false-positive rate of the cell's last completed job.", labels).Set(c.FPRate)
		if c.Coverage != nil {
			s.reg.GaugeWith("fhserved_bench_coverage",
				"SDC coverage of the cell's last completed job.", labels).Set(c.Coverage.Coverage)
		}
	}
}

// persist writes the job's status.json (best effort during state
// churn; the next transition rewrites it).
func (s *Server) persist(j *job) error {
	j.mu.Lock()
	ps := persistedStatus{
		SpecHash:  j.id,
		State:     j.state,
		Spec:      j.spec,
		CreatedAt: j.created.UTC().Format(time.RFC3339),
	}
	if j.err != nil {
		ps.Error = j.err.Error()
	}
	if !j.finished.IsZero() {
		ps.FinishedAt = j.finished.UTC().Format(time.RFC3339)
	}
	dir := j.dir
	j.mu.Unlock()
	if err := campaign.WriteJSONFile(filepath.Join(dir, StatusName), ps); err != nil {
		s.log.Warn("writing status file failed", "job", ps.SpecHash, "err", err)
		return err
	}
	return nil
}

// scrape refreshes the derived series the /metrics handler serves:
// the injections-per-second gauge from the counter delta since the
// previous scrape, and the prepared-cache counters from the cache's
// own tallies.
func (s *Server) scrape() {
	hits, misses := s.prepared.Stats()
	s.mPrepHits.Set(float64(hits))
	s.mPrepMisses.Set(float64(misses))
	s.rateMu.Lock()
	defer s.rateMu.Unlock()
	now := time.Now()
	cur := s.mInjections.Get()
	if dt := now.Sub(s.rateLastTime).Seconds(); dt > 0 {
		s.mInjRate.Set((cur - s.rateLastInj) / dt)
	}
	s.rateLastTime, s.rateLastInj = now, cur
}

// bundleComplete reports whether dir holds every post-run artifact.
func bundleComplete(dir string) bool {
	for _, f := range []string{campaign.ManifestName, campaign.ResultsName, campaign.SummaryName, campaign.ReportName} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			return false
		}
	}
	return true
}

// hasManifest reports whether dir can be resumed (the engine writes
// the manifest before the first injection).
func hasManifest(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, campaign.ManifestName))
	return err == nil
}
