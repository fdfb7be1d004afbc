# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test test-race race cover bench bench-json bench-fleet bench-admission bench-bundle bench-megafleet bench-serve bench-residual alloc-gate residual-gate conservation scope-gate fuzz-short bench-smoke experiments examples obs-smoke serve-smoke

all: build test

build:
	go build ./...

# Vet, and fail when any file is not gofmt-clean.
vet:
	go vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi

test: vet obs-smoke serve-smoke conservation scope-gate fuzz-short bench-smoke alloc-gate residual-gate
	go test -shuffle=on ./...

# The benchmark harness is its own module (bench/go.mod), so the root
# `go test ./...` never compiles it. Vet and test it here, so a change
# to an API the benchmark drives breaks `make test`, not the next
# benchmark run.
bench-smoke:
	go -C bench vet ./... && go -C bench test ./...

# The fleet allocation gate: one exact run of the 10k-device parallel
# fleet benchmark against the committed budgets in bench_budget.json.
# Keeps the memory-compact state plane honest — an accidental
# per-tick allocation on the MAPE hot path fails `make test`, not a
# benchmark review three PRs later.
alloc-gate:
	sh scripts/alloc_gate.sh bench_budget.json

# The partial-evaluation gate: the 10k-policy/64-class residual must
# stay at least 10x faster than the full snapshot deciding for the
# same device (measured margin ~22x; the ratio of two same-process
# benchmarks is robust to host speed).
residual-gate:
	sh scripts/residual_gate.sh

# The trust-boundary gate: the cross-org scope-refusal property (any
# bundle signed by org A's key that names an org-B policy is refused
# with ErrScope), the multi-root distributor refusal path (including
# reports naming an org with no root), and the E21 coalition chaos run
# with its exact books and 1/2/4-worker determinism differential, and
# the per-root lagging books against a brute-force recount.
scope-gate:
	go test -run 'TestScope|TestAgentsTwoRootsOneSet|TestKeyRing' ./internal/bundle
	go test -run 'TestDistributorMultiRoot|TestDistributorForged|TestDistributorBadPayload|TestDistributorEncodeFailure|TestDistributorUnknownOrg|TestDistributorLaggingBooks' \
		./internal/core
	go test -run 'TestE21' ./internal/experiments

# A short randomized pass over the bundle wire-format decoder on top of
# its seeded corpus: no input may reach live policy state or crash the
# fail-closed verification chain.
fuzz-short:
	go test -run=FuzzBundleDecode -fuzz=FuzzBundleDecode -fuzztime=10s \
		./internal/bundle

# The admission-plane conservation gate, runnable on its own: the E16
# saturation ledger must balance exactly (sent == delivered + dropped
# + shed, pending 0) and the drop-site audit must find no discarded
# Send/Deliver outcomes anywhere in the production source.
conservation:
	go test -run 'TestE16ConservationExact|TestNoUnaccountedDropSites|TestConservationUnderRandomLoad' \
		./internal/experiments ./internal/admission

# End-to-end observability check: run a short scenario with the live
# endpoint up and assert /metrics and /traces serve well-formed,
# non-empty output.
obs-smoke:
	sh scripts/obs_smoke.sh

# End-to-end control-plane check: start `skynetsim serve`, submit a
# command, follow its trace to a connected decision tree, stream the
# verifiable audit tail, burst it with loadgen and drain on SIGTERM.
serve-smoke:
	sh scripts/serve_smoke.sh

# Race-check the library packages (the chaos and resilience tests
# exercise concurrent senders); `race` covers the whole module. The
# second command repeats the parallel-determinism differentials under
# the race detector — goroutine schedules vary across -count runs, so
# byte-identical journals twice in a row is strong evidence the merge
# order really is deterministic — together with the device lock
# discipline tests: the pinned scratch journal, routed re-entry, and
# concurrent events and sensing on one device; and the distributor's
# lagging books under a two-worker engine.
test-race:
	go test -race ./internal/...
	go test -race -count=2 -run 'TestParallelDeterminism|TestE15Determinism|TestPropertyScratchJournalPinned|TestRoutedReentry|TestConcurrentHandleAndSense|TestDistributorLaggingBooks|TestDifferentialResidualVsFull|TestResidualConcurrentSpecialize' \
		./internal/sim ./internal/experiments ./internal/device ./internal/core ./internal/policy

race:
	go test -race ./...

cover:
	go test -cover ./...

# Benchmarks: 5 repetitions per benchmark, results mirrored to
# bench.txt for before/after comparisons (see EXPERIMENTS.md E13).
bench:
	go test -bench=. -benchmem -count=5 ./... | tee bench.txt

# Machine-readable benchmark results: run the suite (3 repetitions for
# turnaround), then distill bench.txt into BENCH_PR7.json. Fleet rows
# (BenchmarkE15Fleet*, BenchmarkE18*) also append to the cumulative
# BENCH_HISTORY.json, so the allocation trend across PRs is one file.
bench-json:
	go test -bench=. -benchmem -count=3 ./... | tee bench.txt
	sh scripts/bench_json.sh bench.txt BENCH_PR7.json

# Admission-control hot paths only (PR5): admit/shed/gate/drain on a
# virtual clock, distilled into BENCH_PR5.json.
bench-admission:
	go test -bench='BenchmarkAdmission' -benchmem -count=5 \
		./internal/admission | tee bench_admission.txt
	sh scripts/bench_json.sh bench_admission.txt BENCH_PR5.json

# Bundle distribution hot paths: publish, verify+activate (full and
# delta) and the fail-closed reject path into BENCH_PR6.json (PR6);
# then the 100k-device multi-root publish fan-out — synchronous
# per-device loop vs sharded batch events at 1/2/4 workers — into
# BENCH_PR10.json (PR10), with dated rows in BENCH_HISTORY.json.
bench-bundle:
	go test -bench='BenchmarkBundle' -benchmem -count=5 \
		./internal/bundle | tee bench_bundle.txt
	sh scripts/bench_json.sh bench_bundle.txt BENCH_PR6.json
	DIST_BENCH_FLEET=100000 go test -bench='BenchmarkDistributorFanout' \
		-benchmem -benchtime=1x -count=3 -timeout 30m \
		./internal/core | tee bench_fanout.txt
	sh scripts/bench_json.sh bench_fanout.txt BENCH_PR10.json

# Control-plane latency benchmarks (PR8): three loadgen runs — closed
# loop, open loop at 1x admission capacity, open loop at 2x — with
# p50/p95/p99 decision latency into BENCH_PR8.json; the benchmark
# lines also append BenchmarkServe* rows to BENCH_HISTORY.json.
bench-serve:
	sh scripts/bench_serve.sh BENCH_PR8.json BENCH_HISTORY.json

# Decision-plane / partial-evaluation benchmarks only (PR9): full
# snapshot vs residual vs specialization cost at 10k policies,
# distilled into BENCH_PR9.json; the Evaluate/Residual/Specialize
# rows also append to BENCH_HISTORY.json.
bench-residual:
	go test -bench='BenchmarkEvaluate|BenchmarkResidual|BenchmarkSpecialize' \
		-benchmem -count=3 ./internal/policy | tee bench_residual.txt
	sh scripts/bench_json.sh bench_residual.txt BENCH_PR9.json

# The 10k-device parallel-fleet benchmarks only (E15). One run per
# variant: each iteration is a whole 30-virtual-second fleet, so
# -benchtime=1x keeps the loop honest.
bench-fleet:
	go test -bench='BenchmarkE15Fleet' -benchmem -benchtime=1x -count=3 \
		./internal/experiments

# The mega-fleet gates (E18): the 10^5-device differential (byte-
# identical journals at 1/2/4 workers) and the 10^6-device smoke run.
# Costs minutes and several GB of RAM, hence env-gated out of `make
# test`.
bench-megafleet:
	E18_MEGAFLEET=1 go test -run TestE18Megafleet100k -v -timeout 60m \
		./internal/experiments
	E18_MEGAFLEET_1M=1 go test -run TestE18Megafleet1M -v -timeout 60m \
		./internal/experiments

experiments:
	go run ./cmd/experiments

examples:
	@for ex in quickstart surveillance tripartite breakglass emergent coalitionshare autonomic; do \
		echo "== examples/$$ex =="; \
		go run ./examples/$$ex; \
		echo; \
	done
