# FaultHound reproduction — convenience targets. Everything is
# stdlib-only Go; no external dependencies.

GO ?= go

.PHONY: all build test vet lint race bench bench-json report gates check-results campaign serve smoke-server smoke-cluster smoke-wgen smoke-optimize trace-demo experiments extensions quick clean

all: lint test build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...
	gofmt -l .

# Static analysis: vet and gofmt always; staticcheck when installed
# (CI installs it — see .github/workflows/ci.yml — so the full set
# gates every merge even if a local checkout lacks the binary).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipped (CI runs it)"; \
	fi

race:
	$(GO) test -race ./internal/workload/ ./internal/wgen/ ./internal/system/ \
		./internal/pipeline/ ./internal/mem/ ./internal/campaign/ ./internal/fault/ \
		./internal/obs/... ./internal/server/... ./internal/cluster/ \
		./internal/contract/ ./internal/report/ ./internal/search/

# Regenerate the reference bundle's detector-quality report sidecar
# (docs/CONTRACTS.md). The bundle's own artifacts are never touched;
# `git diff` afterwards must be clean or the report has drifted.
report:
	$(GO) run ./cmd/fhreport bundle results/campaigns/reference-1k

# The CI release gates, runnable locally: contract validation over
# every committed artifact, the quality-report drift gate, the
# self-diff sanity check, the bench-gate positive/negative
# controls (docs/CONTRACTS.md), and the extension-results drift gate.
gates:
	$(GO) run ./cmd/fhreport validate results/campaigns/reference-1k \
		results/bench/BENCH_simcore.json \
		internal/server/testdata/spechash_golden.json \
		internal/server/testdata/wspec_golden.json \
		internal/search/testdata/golden \
		internal/search/testdata/golden/pareto.csv
	$(GO) run ./cmd/fhreport bundle -out /tmp/fh-gate-regen results/campaigns/reference-1k
	cmp /tmp/fh-gate-regen/quality.json results/campaigns/reference-1k/report/quality.json
	cmp /tmp/fh-gate-regen/quality.md results/campaigns/reference-1k/report/quality.md
	$(GO) run ./cmd/fhreport diff results/campaigns/reference-1k results/campaigns/reference-1k
	./scripts/check_bench_gate.sh
	GO=$(GO) ./scripts/check_results.sh /tmp/fh-check-results

# Extension-results drift gate: regenerate results_ext.txt and
# results_mp.txt into a scratch directory and require both to match
# the committed files byte for byte (~30 s).
check-results:
	GO=$(GO) ./scripts/check_results.sh /tmp/fh-check-results

# Parallel, resumable fault-injection campaign with an artifact bundle.
campaign:
	$(GO) run ./cmd/fhcampaign -bench all -schemes faulthound -injections 600

# Campaign-serving daemon (docs/SERVER.md). Submit with
# `fhcampaign -addr localhost:8418` or plain curl.
serve:
	$(GO) run ./cmd/fhserved -addr :8418 -data results/server -v

# Scripted daemon round trip: start fhserved on a scratch root, submit
# a small campaign over HTTP, verify the bundle, drain cleanly.
smoke-server:
	./scripts/smoke_server.sh

# Cluster fabric round trip (docs/CLUSTER.md): coordinator + two
# workers, a sharded campaign, one worker SIGKILLed mid-run, and a
# byte-identical-merge check against a single-node golden.
smoke-cluster:
	./scripts/smoke_cluster.sh

# Generated-workload round trip (docs/GENERATED-WORKLOADS.md): record
# a gen stream, replay it, require identical stream hashes, and check
# a sweep campaign is bit-identical across -workers settings.
smoke-wgen:
	./scripts/smoke_wgen.sh

# Pareto-search round trip (docs/OPTIMIZE.md): a seeded local
# fhcampaign -optimize byte-identical across -workers settings,
# contract-validated artifacts, and a daemon POST /v1/optimize whose
# repeat hits the request-hash cache.
smoke-optimize:
	./scripts/smoke_optimize.sh

# Perfetto trace of a short simulation — load results/trace-demo.json
# in ui.perfetto.dev (docs/OBSERVABILITY.md).
trace-demo:
	mkdir -p results
	$(GO) run ./cmd/fhsim -bench bzip2 -scheme faulthound -trace results/trace-demo.json -trace-cycles 3000

# One iteration of every paper-figure bench plus the ablations.
bench:
	$(GO) test -bench=. -benchmem -benchtime 1x -run xxx .

# Guard benchmarks for the simulation/injection hot path, distilled
# into results/bench/BENCH_simcore.json (docs/PERFORMANCE.md).
bench-json:
	./scripts/bench.sh

# Full-scale regeneration of every table and figure (tens of minutes).
experiments:
	$(GO) run ./cmd/faulthound -experiment all -commits 60000 -injections 600 -csv results -json results | tee results_all.txt

# Regenerate results_ext.txt and results_mp.txt in place; the flags
# live in scripts/check_results.sh, shared with `make check-results`.
extensions:
	GO=$(GO) ./scripts/check_results.sh .

# Smoke-scale versions of the experiments (a couple of minutes).
quick:
	$(GO) run ./cmd/faulthound -experiment all -quick

clean:
	rm -rf results results_all.txt results_ext.txt results_mp.txt test_output.txt bench_output.txt
