# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test test-race race cover bench-once bench-megafleet alloc-gate residual-gate conservation scope-gate fuzz-short bench-smoke experiments examples obs-smoke serve-smoke

all: build test

build:
	go build ./...

# Vet, and fail when any file is not gofmt-clean.
vet:
	go vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi

test: vet obs-smoke serve-smoke conservation scope-gate fuzz-short bench-smoke bench-once alloc-gate residual-gate
	go test -shuffle=on ./...

# Run every Benchmark* once, so one that starts failing (a b.Fatal on
# a degenerate run, say) fails `make test`. Nothing reads the numbers;
# alloc-gate and residual-gate are the benchmarks that gate.
bench-once:
	go test -run '^$$' -bench . -benchtime=1x ./...

# The benchmark harness is its own module (bench/go.mod), so the root
# `go test ./...` never compiles it. Vet and test it here, so a change
# to an API the benchmark drives breaks `make test`, not the next
# benchmark run.
bench-smoke:
	go -C bench vet ./... && go -C bench test ./...

# The allocation gate: one exact run of each benchmark budgeted in
# bench_budget.json — the 10k-device parallel fleet, its construction,
# a subscriber's delta activation on a cold and a warm record table,
# and one warm parallel engine period of 10k shards. Keeps the
# memory-compact state plane, the distribution path and the engine's
# merge honest — an accidental per-tick, per-activation or per-segment
# allocation fails `make test`, not a benchmark review three PRs later.
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
# with its exact books and 1/2/4-worker determinism differential, the
# per-root lagging books against a brute-force recount, and the
# fail-closed cases on a cold and a warm compiled-record table, so a
# table hit never skips a per-device check.
scope-gate:
	go test -run 'TestScope|TestAgentsTwoRootsOneSet|TestKeyRing|TestFailClosed|TestRecordTable' ./internal/bundle
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
# concurrent events and sensing on one device; the distributor's
# lagging books under a two-worker engine; agents sharing the
# process's compiled-record table from concurrent goroutines;
# skynetsim's differentials, which run every combination of scenario
# blocks at 1, 2 and 4 workers; the keyed bus fault draws, from
# sharded senders to one sink and from a two-root fan-out; and the
# engine's queue order against a reference (time, seq) heap; the
# compact journal against the slice-of-entries reference it replaced;
# two HMAC keys sharing an ID verifying through pooled MAC states; and
# registry handle hits and misses on one registry.
test-race:
	go test -race ./internal/...
	go test -race -count=2 -run 'TestParallelDeterminism|TestE15Determinism|TestPropertyScratchJournalPinned|TestRoutedReentry|TestConcurrentHandleAndSense|TestDistributorLaggingBooks|TestDifferentialResidualVsFull|TestResidualConcurrentSpecialize|TestFailClosed|TestRecordTable|TestRunBlockCombinations|TestRunParallelScenario|TestBusShardedSendersDeterministic|TestDistributorTwoRootsDeterministic|TestQueueOrder|TestCompactMatchesReference|TestHMACKeysSharingIDConcurrent|TestRegistryConcurrentHitsAndMisses' \
		./internal/sim ./internal/experiments ./internal/device ./internal/core ./internal/policy ./internal/bundle ./internal/network ./internal/audit ./internal/telemetry ./cmd/skynetsim

race:
	go test -race ./...

cover:
	go test -cover ./...

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
