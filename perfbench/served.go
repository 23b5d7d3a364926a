package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"faulthound/internal/campaign"
	"faulthound/internal/contract"
	"faulthound/internal/fault"
	"faulthound/internal/obs"
	"faulthound/internal/pipeline"
	"faulthound/internal/scheme"
	"faulthound/internal/server"
	"faulthound/internal/stats"
)

// The served traffic mix. It is an assumption, not taken from any
// recorded caller: the repository has no log of daemon traffic. The
// fresh specs are the 20 single-kernel, single-variant specs (bzip2 or
// mcf × one of 10 registry scheme variants), then 720 rounds of four:
// each round holds each ordered kernel list (bzip2; mcf; bzip2,mcf;
// mcf,bzip2) once, with an ordered list of 3 distinct variants, and
// each kernel list meets every 3-variant list once over the rounds.
// Every spec has servedInjCount injections. The workload seed orders
// the single specs, the rounds and each kernel list's variant lists,
// but every seed sees the same shapes in the same proportions: a cold
// start in which each job prepares one new cell (and its kernel's
// baseline the first time), then two 4-cell and two 8-cell jobs in
// every round.
// All specs share 2 kernels × (baseline + 10 variants) = 22 cells, so
// after the cold start jobs hit fault.PreparedCache. A run that draws
// more fresh specs than the 2900 the pool holds wraps around, and its
// late "fresh" jobs become cache hits; the run then says so. Every
// servedRepeatEvery-th job resubmits an earlier spec exactly, which
// hits the daemon's spec-hash result cache; fixing the positions keeps
// the hit share the same at every seed and however many jobs a run
// completes. The fault seed is fixed, because with only servedInjCount
// injections per cell the cost of a cell's drawn injections varies
// more from one fault seed to the next than the benchmark's bounds
// allow. So every seed's cells match the goldens.
var (
	servedBenches     = []string{"bzip2", "mcf"}
	servedSchemes     = []string{"faulthound", "faulthound?tcam=16", "faulthound?tcam=64", "faulthound?delay=5", "faulthound?delay=6", "faulthound?lsq=off", "faulthound?2level=off", "faulthound?squash=off", "faulthound?loosen=2", "pbfs"}
	servedRepeatEvery = 5
	servedInjCount    = 32
)

// jobStream draws the job sequence from the workload seed.
type jobStream struct {
	mu      sync.Mutex
	rng     *stats.RNG
	pool    []campaign.Spec // the fresh specs in the order they are drawn
	fresh   []campaign.Spec // fresh specs drawn so far
	drawn   int
	wrapped bool
}

func newJobStream(seed uint64) *jobStream {
	g := &jobStream{rng: stats.NewRNG(seed)}
	spec := func(benches, schemes []string) campaign.Spec {
		return campaign.Spec{
			Benchmarks: benches,
			Schemes:    schemes,
			Fault:      fault.Config{Injections: servedInjCount, Seed: defaultSeed},
		}
	}
	var singles []campaign.Spec
	for _, b := range servedBenches {
		for _, s := range servedSchemes {
			singles = append(singles, spec([]string{b}, []string{s}))
		}
	}
	for _, p := range g.rng.Perm(len(singles)) {
		g.pool = append(g.pool, singles[p])
	}
	kernels := orderedLists(servedBenches, 2)
	var triples [][]string
	for _, l := range orderedLists(servedSchemes, 3) {
		if len(l) == 3 {
			triples = append(triples, l)
		}
	}
	walks := make([][]int, len(kernels)) // each kernel list's variant-list order
	for k := range kernels {
		walks[k] = g.rng.Perm(len(triples))
	}
	for r := range triples {
		for _, k := range g.rng.Perm(len(kernels)) {
			g.pool = append(g.pool, spec(kernels[k], triples[walks[k][r]]))
		}
	}
	return g
}

func (g *jobStream) next() campaign.Spec {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.drawn++
	if k := len(g.fresh); k > 0 && g.drawn%servedRepeatEvery == 0 {
		return g.fresh[g.rng.Intn(k)]
	}
	g.wrapped = g.wrapped || len(g.fresh) >= len(g.pool)
	sp := g.pool[len(g.fresh)%len(g.pool)]
	g.fresh = append(g.fresh, sp)
	return sp
}

// orderedLists returns every ordered list of 1..max distinct elements
// of xs.
func orderedLists(xs []string, max int) [][]string {
	var out [][]string
	var grow func(prefix []string, used map[string]bool)
	grow = func(prefix []string, used map[string]bool) {
		if len(prefix) > 0 {
			out = append(out, append([]string(nil), prefix...))
		}
		if len(prefix) == max {
			return
		}
		for _, x := range xs {
			if !used[x] {
				used[x] = true
				grow(append(prefix, x), used)
				used[x] = false
			}
		}
	}
	grow(nil, map[string]bool{})
	return out
}

// daemon is an in-process campaign-serving daemon on a loopback
// listener, with the hooks the benchmark measures it through.
type daemon struct {
	srv      *server.Server
	hs       *http.Server
	served   chan struct{} // closed when Serve returns
	cl       *server.Client
	root     string
	prepared *fault.PreparedCache
	tr       *tracer

	mu      sync.Mutex
	started map[string]time.Time // run ID -> execution start
	prepS   []float64            // fault.Prepare durations (cache misses)
	runS    [2][]float64         // Engine.Run durations of untraced, traced jobs
}

// tracedJob splits the traced pass's jobs in two by their run ID (a
// spec hash prefix), so both the daemon's runner and the client that
// submitted a job know whether it is traced; the untraced half is the
// control for obs.trace_overhead_frac.
func tracedJob(runID string) bool { return runID != "" && runID[len(runID)-1]&1 == 0 }

func startDaemon(e *env, root string, tr *tracer) (*daemon, error) {
	d := &daemon{
		root:     root,
		prepared: fault.NewPreparedCache(),
		tr:       tr,
		served:   make(chan struct{}),
		started:  map[string]time.Time{},
	}
	srv, err := server.New(server.Config{
		Root:      root,
		Factory:   e.opts.CampaignFactory(),
		BaseFault: e.opts.Fault,
		// A fixed stamp keeps spec hashes, and so run IDs and
		// summary.json, independent of the checkout's commit.
		GitCommit: "perfbench",
		Prepared:  d.prepared,
		Runner:    d.run,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.srv = srv
	d.hs = &http.Server{Handler: srv.Handler()}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln)
	}()
	srv.Start()
	d.cl = server.NewClient(ln.Addr().String())
	return d, nil
}

// stop shuts the listener and the job runners down and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	<-d.served
	if derr := d.srv.Drain(ctx); err == nil {
		err = derr
	}
	http.DefaultClient.CloseIdleConnections()
	return err
}

// run is the daemon's campaign runner: the default in-process engine
// run, stamped with its start time and duration and, in the traced
// pass, with each prepared-cache miss's fault.Prepare time and, for
// traced jobs, the engine's spans.
func (d *daemon) run(ctx context.Context, eng *campaign.Engine, dir string, resume bool) (*campaign.Outcome, error) {
	start := time.Now()
	d.mu.Lock()
	d.started[eng.Spec.RunID] = start
	d.mu.Unlock()
	traced := d.tr != nil && tracedJob(eng.Spec.RunID)
	if traced {
		eng.Obs = obs.Tee(eng.Obs, d.tr)
	}
	if d.tr != nil {
		prep := eng.Prepare
		eng.Prepare = func(c campaign.Cell, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error) {
			key := fault.PreparedKey{Bench: c.Bench, Scheme: c.Scheme.String(), Cfg: cfg}
			warm := slices.Contains(d.prepared.Keys(), key)
			t0 := time.Now()
			p, err := prep(c, mk, cfg)
			if !warm {
				d.mu.Lock()
				d.prepS = append(d.prepS, time.Since(t0).Seconds())
				d.mu.Unlock()
			}
			return p, err
		}
	}
	var out *campaign.Outcome
	var err error
	if resume {
		out, err = eng.Resume(ctx, dir)
	} else {
		out, err = eng.Run(ctx, dir, false)
	}
	end := time.Now()
	d.mu.Lock()
	d.runS[btoi(traced)] = append(d.runS[btoi(traced)], end.Sub(start).Seconds())
	d.mu.Unlock()
	if traced {
		d.tr.add(trackMain, "campaign.Engine.Run", start, end)
	}
	return out, err
}

// job is one client request as the client saw it.
type job struct {
	id        string
	runID     string
	hit       bool
	submitted time.Time
	latency   time.Duration // Submit call until results.csv is fetched
	submitDur time.Duration
	fetchDur  time.Duration
	csv       []byte
	err       error
}

// clients runs the closed loop: one goroutine per client, each
// submitting, watching, fetching results.csv, and only then submitting
// again, until budget elapses.
func (d *daemon) clients(gen *jobStream, n int, budget time.Duration) []job {
	ctx := context.Background()
	deadline := time.Now().Add(budget)
	var (
		mu   sync.Mutex
		jobs []job
		wg   sync.WaitGroup
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			track := trackClient0 + i
			for time.Now().Before(deadline) {
				spec := gen.next()
				j := job{submitted: time.Now()}
				var st, final *server.JobStatus
				t0 := time.Now()
				st, j.err = d.cl.Submit(ctx, spec)
				j.submitDur = time.Since(t0)
				// Whether a job is traced is known once Submit returns
				// its run ID; the span is added after the fact.
				var tr *tracer
				if j.err == nil {
					j.id, j.runID, j.hit = st.ID, st.RunID, st.CacheHit
					if d.tr != nil && tracedJob(j.runID) {
						tr = d.tr
						tr.add(track, "server.Client.Submit", t0, t0.Add(j.submitDur))
					}
					tr.do(track, "server.Client.Watch", func() { final, j.err = d.cl.Watch(ctx, st.ID, nil) })
				}
				if j.err == nil && final.State != server.StateDone {
					j.err = fmt.Errorf("job %s ended %s: %s", final.ID, final.State, final.Error)
				}
				if j.err == nil {
					j.fetchDur = tr.do(track, "server.Client.BundleFile", func() { j.csv, j.err = d.cl.BundleFile(ctx, st.ID, campaign.ResultsName) })
				}
				end := time.Now()
				j.latency = end.Sub(j.submitted)
				if tr != nil {
					tr.add(track, "served.job", j.submitted, end)
				}
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return jobs
}

// served: an in-process daemon with nproc server.Client callers in a
// closed loop, as `fhcampaign -addr` users run. It is the only workload
// through the server layer (spec-hash result cache, job queue,
// prepared-cell cache, HTTP bundle fetch). The pass starts from a fresh
// data root; in the traced run, half of its jobs are traced.
func runServed(e *env) error {
	e.seedFreeCells = true
	clientsN := e.opts.Workers
	n := 0
	newRoot := func() string {
		n++
		return filepath.Join(e.work, "runs", fmt.Sprintf("daemon-%d", n))
	}
	var probe layerProbe
	var cells []campaign.Cell
	for _, b := range servedBenches {
		cells = append(cells, campaign.Cell{Bench: b, Scheme: campaign.BaselineSpec})
		for _, s := range servedSchemes {
			cells = append(cells, campaign.Cell{Bench: b, Scheme: scheme.FromString(s)})
		}
	}
	var tr *tracer
	if e.traced {
		tr = newTracer()
	}
	d, err := timeSetup(e, func() (*daemon, error) {
		if err := probe.timeBuilds(e, cells, 1); err != nil {
			return nil, err
		}
		return startDaemon(e, newRoot(), tr)
	}, func(d *daemon) { d.stop() })
	if err != nil {
		return err
	}
	gen := newJobStream(e.seed)
	t0 := time.Now()
	jobs := d.clients(gen, clientsN, e.budget)
	wall := time.Since(t0).Seconds()
	if err := d.stop(); err != nil {
		return err
	}
	e.checkJobs(d, jobs)
	done := 0
	lat := make([]float64, 0, len(jobs))
	for _, j := range jobs {
		lat = append(lat, j.latency.Seconds())
		if j.err == nil {
			done++
		}
	}
	fmt.Printf("served: %d jobs completed in %.3f s (%.4g/s over the whole pass)\n", done, wall, float64(done)/wall)
	if gen.wrapped {
		fmt.Printf("served: warning: all %d fresh specs were drawn, so later fresh jobs were cache hits; the figures overstate the daemon's speed\n", len(gen.pool))
	}
	// The closed loop has no think time, so by Little's law it
	// completes clients / (job latency) jobs per second. Taking the
	// median latency keeps the cold start (the first job on each of the
	// 22 cells prepares it) and a host slowdown spanning a minority of
	// jobs out of the rate.
	e.throughput(float64(clientsN)/median(lat), lat)
	if !e.traced {
		return nil
	}
	e.overhead(median(d.runS[0]), median(d.runS[1]))
	return e.servedLayers(tr, d, &probe, cells, jobs)
}

// checkJobs verifies every job: it finished, each of its cells matches
// the golden (default seed) and every other job's copy of that cell,
// its bundle passes the artifact contract, and a cache hit's bundle
// equals the cold run's. Each job is one operation.
func (e *env) checkJobs(d *daemon, jobs []job) {
	bundles := map[string][]byte{}  // spec hash -> first results.csv seen
	valid := map[string]error{}     // spec hash -> contract verdict
	summaries := map[string]error{} // spec hash -> cell check verdict
	for _, j := range jobs {
		err := j.err
		if err == nil {
			if first, ok := bundles[j.id]; !ok {
				bundles[j.id] = j.csv
				dir := filepath.Join(d.root, j.id)
				valid[j.id] = contract.ValidateBundle(dir)
				summaries[j.id] = e.checkServedCells(dir, j.csv)
			} else if string(first) != string(j.csv) {
				err = fmt.Errorf("job %s: cache-hit bundle differs from the cold bundle", j.id)
			}
		}
		if err == nil {
			err = errors.Join(valid[j.id], summaries[j.id])
		}
		e.chk.op(err)
	}
}

// checkServedCells checks each cell of one served bundle.
func (e *env) checkServedCells(dir string, csv []byte) error {
	b, err := os.ReadFile(filepath.Join(dir, campaign.SummaryName))
	if err != nil {
		return err
	}
	var sum campaign.Summary
	if err := json.Unmarshal(b, &sum); err != nil {
		return fmt.Errorf("%s: summary: %w", dir, err)
	}
	rows := cellRows(csv)
	var errs []error
	for _, cs := range sum.Cells {
		cell := cs.Bench + "/" + cs.Scheme
		errs = append(errs, e.cellErr(cell, cellFingerprint(rows[cell], &cs)))
	}
	return errors.Join(errs...)
}

// servedLayers derives the server, campaign and fault metrics of the
// traced pass and runs the layer probes on every cell of the mix.
func (e *env) servedLayers(tr *tracer, d *daemon, probe *layerProbe, cells []campaign.Cell, jobs []job) error {
	var submitMS, fetchMS, waitS []float64
	hits := 0
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		submitMS = append(submitMS, j.submitDur.Seconds()*1e3)
		fetchMS = append(fetchMS, j.fetchDur.Seconds()*1e3)
		if j.hit {
			hits++
			continue
		}
		if s, ok := d.started["job-"+j.id[:12]]; ok {
			waitS = append(waitS, s.Sub(j.submitted).Seconds())
		}
	}
	ph, pm := d.prepared.Stats()
	for _, c := range cells {
		if _, err := probe.probeCell(e, tr, c); err != nil {
			return err
		}
	}
	e.det["pipeline.probe_cycles"] = probe.cycles
	e.det["pipeline.probe_commits"] = probe.instr
	e.det["core.probe_checks"] = probe.checks
	prepBusy := sum(tr.durations("prepare"))
	injBusy := sum(tr.durations("injection"))
	e.layers = append(e.layers, probe.metrics()...)
	e.extra = append(e.extra,
		metric{"server.submit_ms_p50", median(submitMS), "ms"},
		metric{"server.queue_wait_s_p50", median(waitS), "s"},
		metric{"server.bundle_fetch_ms_p50", median(fetchMS), "ms"},
		metric{"server.result_cache_hit_ratio", float64(hits) / float64(len(submitMS)), "frac"},
		metric{"server.prepared_hit_ratio", float64(ph) / float64(ph+pm), "frac"},
		metric{"campaign.prepare_busy_s", prepBusy, "s"},
		metric{"campaign.inject_busy_s", injBusy, "s"},
		metric{"campaign.prepare_share", prepBusy / (prepBusy + injBusy), "frac"},
		metric{"fault.prepare_ms_p50", median(d.prepS) * 1e3, "ms"},
		metric{"fault.prepare_ms_max", stats.Percentile(d.prepS, 100) * 1e3, "ms"},
	)
	return e.finishTrace(tr)
}
