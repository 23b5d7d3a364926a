package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"faulthound/internal/campaign"
	"faulthound/internal/fault"
	"faulthound/internal/pipeline"
	"faulthound/internal/scheme"
)

// Worker executes shard leases on behalf of a coordinator. It shares
// the daemon's fault.PreparedCache, so a cell prepared for one lease
// (or for a direct front-door job) is warm for every later lease of
// the same cell — the locality the cache-aware routing policy exploits.
type Worker struct {
	// Factory resolves cells to core constructors (the daemon's
	// campaign factory).
	Factory campaign.CoreFactory
	// Cache is the shared golden-preparation cache. Required.
	Cache *fault.PreparedCache
	// Slots is the advertised concurrent shard capacity (<= 0 means 1).
	Slots int
	// QueueDepth reports the daemon's own pending-job count for
	// heartbeats; nil means 0.
	QueueDepth func() int
	// Log receives operational logs; nil discards them.
	Log *slog.Logger

	inflight atomic.Int64
	joined   atomic.Bool
}

func (w *Worker) log() *slog.Logger {
	if w.Log != nil {
		return w.Log
	}
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// Status snapshots the worker's heartbeat payload.
func (w *Worker) Status(id, addr string) WorkerStatus {
	slots := w.Slots
	if slots <= 0 {
		slots = 1
	}
	st := WorkerStatus{
		ID:       id,
		Addr:     addr,
		Slots:    slots,
		Inflight: int(w.inflight.Load()),
	}
	if w.QueueDepth != nil {
		st.QueueDepth = w.QueueDepth()
	}
	hits, misses := w.Cache.Stats()
	st.CacheHits, st.CacheMisses = hits, misses
	for _, k := range w.Cache.Keys() {
		st.WarmCells = append(st.WarmCells, CellKey(k.Bench, k.Scheme))
	}
	return st
}

// Joined reports whether the last registration/heartbeat round trip
// with the coordinator succeeded — the worker's readiness signal.
func (w *Worker) Joined() bool { return w.joined.Load() }

// Handler returns the worker's cluster endpoint:
//
//	POST /v1/cluster/run  execute a shard, streaming JSONL StreamRecords
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/run", w.handleRun)
	return mux
}

// handleRun executes one shard and streams records as they complete.
// The response is written incrementally: one JSON line per prep/result,
// "ping" keepalives while the golden preparation runs, and a final
// "done" (or "error") line. The client disconnecting cancels the shard
// via the request context (fault.Prepared.Run polls it mid-injection).
func (w *Worker) handleRun(rw http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		http.Error(rw, "bad shard request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := req.Validate(); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	sp := scheme.FromString(req.Scheme)
	mk, err := w.Factory(req.Bench, sp)
	if err != nil {
		http.Error(rw, fmt.Sprintf("cluster: cannot build cell %s/%s: %v", req.Bench, req.Scheme, err), http.StatusBadRequest)
		return
	}

	w.inflight.Add(1)
	defer w.inflight.Add(-1)
	log := w.log().With("lease", req.LeaseID, "cell", CellKey(req.Bench, req.Scheme), "from", req.From, "to", req.To)
	log.Debug("shard starting")

	rw.Header().Set("Content-Type", "application/x-ndjson")
	rw.WriteHeader(http.StatusOK)
	flusher, _ := rw.(http.Flusher)
	send := func(rec StreamRecord) error {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if _, err := rw.Write(append(b, '\n')); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	fail := func(err error) {
		log.Warn("shard failed", "err", err)
		send(StreamRecord{Kind: KindError, Error: err.Error()})
	}

	// The golden preparation can take seconds (detector fast-forward +
	// warmup); stream pings while it runs so the coordinator's lease
	// timer keeps renewing.
	type prepOut struct {
		p   *fault.Prepared
		err error
	}
	prepCh := make(chan prepOut, 1)
	go func() {
		p, err := w.Cache.Get(fault.PreparedKey{Bench: req.Bench, Scheme: req.Scheme, Cfg: req.Fault}, mk)
		prepCh <- prepOut{p, err}
	}()
	var prep prepOut
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
wait:
	for {
		select {
		case prep = <-prepCh:
			break wait
		case <-r.Context().Done():
			return
		case <-ticker.C:
			if err := send(StreamRecord{Kind: KindPing}); err != nil {
				return
			}
		}
	}
	if prep.err != nil {
		fail(prep.err)
		return
	}
	if err := send(StreamRecord{Kind: KindPrep, FPRate: prep.p.FPRate()}); err != nil {
		return
	}

	// Execute the range sequentially. Parallelism comes from the
	// coordinator dispatching up to Slots concurrent leases per worker;
	// keeping one goroutine per lease keeps the stream ordered and the
	// progress granularity exact.
	injs := prep.p.Injections()
	arena := pipeline.NewSnapshotArena()
	for i := req.From; i < req.To; i++ {
		res, err := prep.p.Run(r.Context(), injs[i], nil, arena)
		if err != nil {
			// Client gone or shutting down; nothing useful to send.
			return
		}
		if err := send(StreamRecord{Kind: KindResult, Index: i, Result: &res}); err != nil {
			return
		}
	}
	send(StreamRecord{Kind: KindDone})
	log.Debug("shard done")
}

// Joiner maintains a worker's membership in a coordinator's registry:
// it registers, then heartbeats until the context ends, re-registering
// whenever the coordinator restarts (heartbeat returns 404) or a send
// fails.
type Joiner struct {
	// Worker supplies the status payloads.
	Worker *Worker
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// ID and Addr identify this worker (its advertised base URL).
	ID, Addr string
	// Interval is the heartbeat period; zero means a third of
	// DefaultExpireAfter.
	Interval time.Duration
	// HTTP overrides the transport (nil means a short-timeout client).
	HTTP *http.Client
	// Log receives join-state transitions; nil discards them.
	Log *slog.Logger
}

func (j *Joiner) interval() time.Duration {
	if j.Interval > 0 {
		return j.Interval
	}
	return DefaultExpireAfter / 3
}

func (j *Joiner) client() *http.Client {
	if j.HTTP != nil {
		return j.HTTP
	}
	return &http.Client{Timeout: 5 * time.Second}
}

func (j *Joiner) log() *slog.Logger {
	if j.Log != nil {
		return j.Log
	}
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// post sends one registry message and reports the HTTP status.
func (j *Joiner) post(ctx context.Context, path string) (int, error) {
	st := j.Worker.Status(j.ID, j.Addr)
	b, err := json.Marshal(st)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, j.Coordinator+path, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := j.client().Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	resp.Body.Close()
	return resp.StatusCode, nil
}

// Run registers and heartbeats until ctx ends. It never returns an
// error: a coordinator that is down is retried forever (the worker
// keeps serving its own front door meanwhile), and Joined() reports
// the current membership state for readiness probes.
func (j *Joiner) Run(ctx context.Context) {
	registered := false
	tick := time.NewTicker(j.interval())
	defer tick.Stop()
	for {
		path := "/v1/cluster/heartbeat"
		if !registered {
			path = "/v1/cluster/register"
		}
		code, err := j.post(ctx, path)
		switch {
		case err != nil:
			if registered || j.Worker.Joined() {
				j.log().Warn("coordinator unreachable", "coordinator", j.Coordinator, "err", err)
			}
			registered = false
			j.Worker.joined.Store(false)
		case code == http.StatusNotFound && registered:
			// Coordinator restarted and lost the registry: re-register
			// on the next round.
			j.log().Info("coordinator lost registration; re-registering")
			registered = false
			j.Worker.joined.Store(false)
		case code >= 200 && code < 300:
			if !registered {
				j.log().Info("joined coordinator", "coordinator", j.Coordinator, "id", j.ID)
			}
			registered = true
			j.Worker.joined.Store(true)
		default:
			j.log().Warn("registry request rejected", "path", path, "status", code)
			registered = false
			j.Worker.joined.Store(false)
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}
