package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"faulthound/internal/contract"
	"faulthound/internal/harness"
	"faulthound/internal/search"
)

// optimizeConfig is testConfig with a timing runner (searches need the
// overhead objectives) and a search-sized injection default.
func optimizeConfig(t *testing.T) Config {
	t.Helper()
	o := harness.QuickOptions()
	o.Fault.Injections = 48
	cfg := testConfig(t)
	cfg.BaseFault = o.Fault
	cfg.Timing = o.TimingRunner()
	return cfg
}

// optimizeReq is a small seeded search over a generated workload.
func optimizeReq() OptimizeRequest {
	return OptimizeRequest{
		Benchmarks: []string{"gen?seg=16k"},
		Schemes:    []string{"faulthound?tcam=8"},
		Budget:     3,
		Seed:       7,
		Params:     []string{"tcam"},
	}
}

// TestOptimizeEndpoint drives POST /v1/optimize end to end as a job: a
// small seeded search, a repeat that is a cache hit serving identical
// pareto.json, contract-valid artifacts in the job directory, params
// canonicalized before hashing, a restart that lists the finished
// search as a cache entry, and bad requests rejected with 400s.
func TestOptimizeEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real injections")
	}
	cfg := optimizeConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	ctx := context.Background()

	req := optimizeReq()
	st, err := cl.SubmitOptimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHit {
		t.Fatal("first search request was a cache hit")
	}
	// Optimize's own submit attaches to the job just created.
	var events []Event
	rep, err := cl.Optimize(ctx, req, func(ev Event) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != "faulthound.pareto/v1" {
		t.Errorf("schema_version = %q", rep.SchemaVersion)
	}
	if len(rep.Front()) == 0 || rep.Evaluated == 0 || rep.Evaluated > 3 {
		t.Errorf("degenerate result: %d front, %d evaluated", len(rep.Front()), rep.Evaluated)
	}
	if want := "opt-" + st.ID[:12]; rep.RunID != want {
		t.Errorf("run_id = %q, want %q", rep.RunID, want)
	}
	if len(events) == 0 || events[len(events)-1].State != StateDone {
		t.Errorf("event stream did not end at done: %+v", events)
	}
	first, err := cl.BundleFile(ctx, st.ID, search.JSONName)
	if err != nil {
		t.Fatal(err)
	}

	// The repeat is a cache hit on the same job with identical bytes,
	// and so is a request whose params differ only in spelling. The
	// caller's params slice is left untouched.
	messy := optimizeReq()
	messy.Params = []string{" tcam", "", "tcam "}
	for _, r := range []OptimizeRequest{req, messy} {
		st2, err := cl.SubmitOptimize(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		if !st2.CacheHit || st2.ID != st.ID || st2.State != StateDone {
			t.Errorf("repeat %v: cache_hit=%v id=%s state=%s, want a hit on %s", r.Params, st2.CacheHit, st2.ID, st2.State, st.ID)
		}
	}
	if messy.Params[0] != " tcam" {
		t.Errorf("submission rewrote the caller's params: %q", messy.Params)
	}
	again, err := cl.BundleFile(ctx, st.ID, search.JSONName)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Error("cached repeat served different pareto.json bytes")
	}

	// Artifacts land in the job directory and conform; the job counters
	// cover searches.
	j := s.Job(st.ID)
	if err := contract.ValidateParetoDir(j.dir); err != nil {
		t.Errorf("job artifacts: %v", err)
	}
	if !bytes.Equal(first, readFile(t, filepath.Join(j.dir, search.JSONName))) {
		t.Error("bundle route served bytes other than the job directory's pareto.json")
	}
	if got := s.mExecuted.Get(); got != 1 {
		t.Errorf("jobs done = %v, want 1", got)
	}
	if got := s.mCacheHits.Get(); got != 3 {
		t.Errorf("cache hits = %v, want 3", got)
	}

	// A search has no detector-quality report to replay.
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusNotFound || !strings.Contains(body, "Pareto search") {
		t.Errorf("report of a search job: %d %s, want 404", resp.StatusCode, body)
	}

	// Bad requests are 400s, not searches.
	for name, bad := range map[string]OptimizeRequest{
		"no benchmarks":    {Schemes: []string{"faulthound"}},
		"unknown scheme":   {Benchmarks: []string{"gen?seg=16k"}, Schemes: []string{"nope"}},
		"baseline only":    {Benchmarks: []string{"gen?seg=16k"}, Schemes: []string{"baseline"}},
		"unknown workload": {Benchmarks: []string{"nope"}, Schemes: []string{"faulthound"}},
		"bad weights":      {Benchmarks: []string{"gen?seg=16k"}, Schemes: []string{"faulthound"}, Weights: "sdc=1"},
		"unknown param":    {Benchmarks: []string{"gen?seg=16k"}, Schemes: []string{"faulthound"}, Params: []string{"tcma"}},
	} {
		if _, err := cl.SubmitOptimize(ctx, bad); !isHTTPStatus(err, http.StatusBadRequest) {
			t.Errorf("%s: err = %v, want 400", name, err)
		}
	}
	if n := len(s.Jobs()); n != 1 {
		t.Errorf("bad requests created jobs: %d jobs listed", n)
	}

	// A restart lists the finished search as a cache entry.
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(context.Background())
	jobs := s2.Jobs()
	if len(jobs) != 1 || jobs[0].ID != st.ID || jobs[0].State != StateDone {
		t.Fatalf("restarted server jobs = %+v, want the done search %s", jobs, st.ID)
	}
	if j2, hit, err := s2.SubmitOptimize(req); err != nil || !hit || j2.id != st.ID {
		t.Errorf("resubmit after restart: hit=%v err=%v", hit, err)
	}
}

// TestOptimizeUnavailable checks the endpoint answers 503 when the
// daemon has no timing runner (a worker-role daemon, or a config that
// never wired one).
func TestOptimizeUnavailable(t *testing.T) {
	s, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json",
		bytes.NewReader([]byte(`{"benchmarks":["bzip2"],"schemes":["faulthound"]}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}
}

// TestOptimizeQueuedBehindCampaign: a search takes a Jobs slot like a
// campaign. With one runner it stays queued until the running
// campaign finishes, and a full queue rejects it with a 429.
func TestOptimizeQueuedBehindCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real injections")
	}
	cfg := optimizeConfig(t)
	cfg.Jobs = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	s.Start()

	// Big enough that the campaign is still running when the search
	// is submitted.
	camp, _, err := s.Submit(testSpec(400))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := camp.subscribe()
	for running := false; !running; {
		select {
		case ev := <-ch:
			running = ev.State == StateRunning
		case <-time.After(2 * time.Minute):
			t.Fatal("campaign never started")
		}
	}
	cancel()
	opt, hit, err := s.SubmitOptimize(optimizeReq())
	if err != nil || hit {
		t.Fatalf("search submit: hit=%v err=%v", hit, err)
	}
	if st := opt.status().State; st != StateQueued {
		t.Fatalf("search state %s while the campaign runs, want queued", st)
	}
	if st := camp.status().State; st != StateRunning {
		t.Fatalf("campaign state %s right after the search submit, want running", st)
	}
	waitDone(t, camp, 2*time.Minute)
	if st := waitDone(t, opt, 2*time.Minute); st.State != StateDone {
		t.Fatalf("search ended %s (%s)", st.State, st.Error)
	}
	camp.mu.Lock()
	campFinished := camp.finished
	camp.mu.Unlock()
	opt.mu.Lock()
	optStarted := opt.started
	opt.mu.Unlock()
	if optStarted.Before(campFinished) {
		t.Errorf("search started at %v, before the campaign finished at %v", optStarted, campFinished)
	}

	// Queue-full admission applies to searches: a runner-less server
	// with a depth-1 queue holding a campaign rejects the search.
	full := optimizeConfig(t)
	full.QueueDepth = 1
	s2, err := New(full)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	if _, err := cl.Submit(context.Background(), testSpec(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SubmitOptimize(context.Background(), optimizeReq()); !isHTTPStatus(err, http.StatusTooManyRequests) {
		t.Errorf("search into a full queue: err = %v, want 429", err)
	}
}

// TestOptimizeDrainRequeue: a drain in the middle of a search leaves
// the job interrupted, a restarted server on the same root requeues
// it, and the rerun's pareto.json is byte-identical to an
// uninterrupted run's.
func TestOptimizeDrainRequeue(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real injections")
	}
	// Enough injections that the drain lands mid-search.
	req := optimizeReq()
	req.Injections = 200

	ref, err := New(optimizeConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ref.Start()
	refJob, _, err := ref.SubmitOptimize(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, refJob, 2*time.Minute)
	ref.Drain(context.Background())
	want := readFile(t, filepath.Join(refJob.dir, search.JSONName))

	cfg := optimizeConfig(t)
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	j1, _, err := s1.SubmitOptimize(req)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := j1.subscribe()
	for progressed := false; !progressed; {
		select {
		case ev := <-ch:
			if ev.State == StateDone {
				t.Fatal("search finished before the drain could interrupt it")
			}
			progressed = ev.Type == "progress" && ev.Done >= 8
		case <-time.After(2 * time.Minute):
			t.Fatal("no progress before deadline")
		}
	}
	cancel()
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := j1.status(); st.State != StateInterrupted {
		t.Fatalf("post-drain state %s, want interrupted", st.State)
	}
	if got := s1.Unfinished(); len(got) != 1 || got[0] != j1.id {
		t.Fatalf("unfinished = %v, want [%s]", got, j1.id)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j2 := s2.Job(j1.id)
	if j2 == nil || j2.opt == nil {
		t.Fatal("restarted server lost the interrupted search")
	}
	if st := j2.status().State; st != StateQueued {
		t.Fatalf("requeued search state %s, want queued", st)
	}
	s2.Start()
	st := waitDone(t, j2, 2*time.Minute)
	s2.Drain(context.Background())
	if st.State != StateDone {
		t.Fatalf("requeued search ended %s (%s)", st.State, st.Error)
	}
	if got := readFile(t, filepath.Join(j2.dir, search.JSONName)); !bytes.Equal(got, want) {
		t.Error("drained-and-requeued pareto.json differs from the uninterrupted run")
	}
}

// isHTTPStatus reports whether err is an apiError with the given code.
func isHTTPStatus(err error, code int) bool {
	ae, ok := err.(*apiError)
	return ok && ae.Code == code
}
