package server

import (
	"fmt"
	"net/http"

	"faulthound/internal/campaign"
	"faulthound/internal/fault"
	"faulthound/internal/scheme"
	"faulthound/internal/search"
)

// DefaultOptimizeBudget caps distinct configurations evaluated when a
// request leaves Budget zero.
const DefaultOptimizeBudget = 8

// OptimizeRequest is the POST /v1/optimize body: the search space
// (benchmarks × base schemes × mutable params) and the driver knobs.
// Zero values take daemon defaults: Budget 8, Injections the daemon's
// base fault config, Weights all-ones, Params every mutable parameter
// the base schemes declare.
type OptimizeRequest struct {
	// Benchmarks under search; objectives are averaged across them.
	Benchmarks []string `json:"benchmarks"`
	// Schemes seed the search population (registry spec syntax; sweep
	// values fan out).
	Schemes []string `json:"schemes"`
	// Budget caps distinct configurations evaluated.
	Budget int `json:"budget,omitempty"`
	// Seed drives the mutation RNG (0 is a valid seed).
	Seed uint64 `json:"seed,omitempty"`
	// Weights is the "-fitness-weights" flag syntax
	// ("coverage=1,fp=1,energy=1,perf=1"); empty means all ones.
	Weights string `json:"weights,omitempty"`
	// Params restricts mutation to these parameter names.
	Params []string `json:"params,omitempty"`
	// Injections per cell; 0 takes the daemon's base fault config.
	Injections int `json:"injections,omitempty"`
}

// optimizeHashable identifies a search job's results: the normalized
// request under its own key (so a search never shares an ID with a
// campaign), the fault config every evaluation runs under, and the
// source revision.
type optimizeHashable struct {
	Optimize OptimizeRequest `json:"optimize"`
	Fault    fault.Config    `json:"fault"`
	Commit   string          `json:"commit"`
}

// SubmitOptimize queues a Pareto search as a job. The request's
// benchmarks, schemes and injection count go through the campaign
// path's normalization, limits and cell resolution; the search knobs
// canonicalize here (weights re-encoded, the budget defaulted, params
// trimmed, sorted, deduplicated and checked against the base schemes).
// Equivalent requests share one job, deduplicated like Submit.
func (s *Server) SubmitOptimize(req OptimizeRequest) (*job, bool, error) {
	w, err := search.ParseWeights(req.Weights)
	if err != nil {
		return nil, false, wrapBadSpec(err)
	}
	req.Weights = w.String()
	if req.Budget <= 0 {
		req.Budget = DefaultOptimizeBudget
	}
	return s.submit(campaign.Spec{
		Benchmarks: req.Benchmarks,
		Schemes:    req.Schemes,
		Fault:      fault.Config{Injections: req.Injections},
	}, &req)
}

// normalizeOptimize completes a search request from its normalized
// spec: the canonical benchmark, scheme and injection values replace
// the submitted ones, and the params list canonicalizes against the
// base population.
func normalizeOptimize(req *OptimizeRequest, norm campaign.Spec) error {
	if len(norm.Schemes) == 0 {
		return errBadSpec("optimize request has no non-baseline schemes")
	}
	params, err := search.NormalizeParams(searchBase(norm), req.Params)
	if err != nil {
		return wrapBadSpec(err)
	}
	req.Benchmarks, req.Schemes, req.Injections = norm.Benchmarks, norm.Schemes, norm.Fault.Injections
	req.Params = params
	return nil
}

// searchBase is a search's round-0 population: the normalized spec's
// schemes (baseline is the implicit pairing basis, never searched).
func searchBase(spec campaign.Spec) []scheme.Spec {
	base := make([]scheme.Spec, len(spec.Schemes))
	for i, sp := range spec.Schemes {
		base[i] = scheme.FromString(sp)
	}
	return base
}

// runSearch executes a search job: the seeded driver over a campaign
// evaluator that shares the daemon's prepared cache, cancelled by a
// drain. Progress accumulates over the evaluation batches. A search
// has no journal, so an interrupted one reruns from scratch; the
// driver is deterministic, so the rerun writes the same artifacts.
func (s *Server) runSearch(j *job) (int, error) {
	if s.cfg.Timing == nil {
		return 0, fmt.Errorf("optimizer unavailable: daemon has no timing runner")
	}
	req := j.opt
	weights, err := search.ParseWeights(req.Weights)
	if err != nil {
		return 0, err
	}
	prior, total := 0, j.status().Total
	ev := &campaign.Evaluator{
		Factory:  s.cfg.Factory,
		Fault:    j.spec.Fault,
		Workers:  j.spec.Workers,
		Timing:   s.cfg.Timing,
		Prepared: s.prepared,
		Obs:      newMetricsSink(s.reg, s.mInflight),
		Progress: func(done, n int) {
			total = max(total, prior+n)
			j.progress(prior+done, total)
			s.mInjections.Inc()
			if done == n {
				prior += n
			}
		},
	}
	cfg := search.Config{
		Seed:    req.Seed,
		Budget:  req.Budget,
		Weights: weights,
		Base:    searchBase(j.spec),
		Params:  req.Params,
		Eval:    search.CampaignEval(ev, req.Benchmarks),
		Log: func(format string, args ...any) {
			s.log.Debug(fmt.Sprintf(format, args...), "job", j.id)
		},
	}
	res, err := search.Run(s.runCtx, cfg)
	if err != nil {
		return 0, err
	}
	return 0, search.NewReport(j.spec.RunID, req.Benchmarks, cfg, res).WriteArtifacts(j.dir)
}

// handleOptimize queues (or deduplicates) a Pareto search job. It
// answers like POST /v1/campaigns — 202 with the new job's status, 200
// with cache_hit for a repeat — and the job is then followed through
// the campaign routes: status, events, and bundle/pareto.{csv,json,md}.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Timing == nil {
		writeError(w, http.StatusServiceUnavailable, "optimizer unavailable: daemon has no timing runner")
		return
	}
	var req OptimizeRequest
	if !s.decodeSubmission(w, r, &req) {
		return
	}
	j, hit, err := s.SubmitOptimize(req)
	s.answerSubmission(w, j, hit, err)
}
