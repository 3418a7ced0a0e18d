# Convenience targets for the SBR reproduction. Everything is plain
# `go` — the Makefile only names the common invocations.

GO ?= go

.PHONY: all build fmt-check vet test race chaos soak lint trace-gate selfmon-gate cover bench bench-full bench-smoke query-bench recovery-bench fuzz examples experiments experiments-quick clean

all: build fmt-check vet test

build:
	$(GO) build ./...

# Fails (and lists the offenders) when any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The fault-injection end-to-end proof under the race detector: thousands
# of frames through a link that drops, corrupts, duplicates, truncates
# and cuts — the station history must match the fault-free run exactly.
chaos:
	$(GO) test -race -run Chaos -count=1 ./...

# The survivable-uplink soak at full scale, race mode: a sensor killed
# mid-transmission, a station flap with archive recovery, and a forced
# shed episode — history must match the fault-free reference exactly.
soak:
	SBR_SOAK=1 $(GO) test -race -run TestChaosSoakSurvivableUplink -count=1 -v .

# Static analysis: vet always; staticcheck when installed (CI installs
# it, local runs without it just say so instead of failing).
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# The tracing overhead gate: with a tracer installed but frames sampled
# out, ReceiveFrame must stay within 5% of the uninstrumented path (takes
# the best of several timed attempts; see tracebench_test.go).
trace-gate:
	SBR_TRACE_GATE=1 $(GO) test -run TestTracingOverheadGate -count=1 -v ./internal/station

# The self-monitoring overhead gate: with the sampler snapshotting the
# registry at a 1ms cadence (50x the production default), ReceiveFrame
# must stay within 2% of the obs-only path (best of several attempts;
# see selfmonbench_test.go).
selfmon-gate:
	SBR_SELFMON_GATE=1 $(GO) test -run TestSelfmonOverheadGate -count=1 -v ./internal/station

cover:
	$(GO) test -cover ./internal/...

# The encode fast-path trajectory: measures the headline benchmarks and
# writes BENCH_pr4.json with ns/op, allocs/op and the speedup over the
# committed pre-optimisation baseline (BENCH_baseline.json).
BENCH_SUITE = BenchmarkEncodeAutoIns|BenchmarkSBREncode$$|BenchmarkSBRShortcut|BenchmarkGetIntervals|BenchmarkBestMapShiftScan
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_SUITE)' -benchmem -benchtime 2s . \
		| $(GO) run ./cmd/benchreport -baseline BENCH_baseline.json -out BENCH_pr4.json
	@cat BENCH_pr4.json

# Every benchmark in every package, at full measurement length.
bench-full:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark plus the report pipeline: catches
# bit-rotted benchmark or tooling code without paying for a measurement run.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...
	$(GO) test -run '^$$' -bench '$(BENCH_SUITE)' -benchmem -benchtime 1x . \
		| $(GO) run ./cmd/benchreport -baseline BENCH_baseline.json -out - >/dev/null
	$(GO) test -run '^$$' -bench '$(QUERY_BENCH_SUITE)' -benchmem -benchtime 1x . \
		| $(GO) run ./cmd/benchreport -baseline BENCH_pr9_query_baseline.json -out - >/dev/null

# Query-serving trajectory (PR 9): hot index aggregates, parallel cold
# range reads and the mixed ingest+query workload, reported against the
# committed pre-PR read path (station-wide RWMutex, cold fetch under
# lock). Writes BENCH_pr9_query.json with the speedups and the ingest
# tail-latency ratios.
QUERY_BENCH_SUITE = BenchmarkQueryHot|BenchmarkQueryColdParallel|BenchmarkQueryMixedIngest
query-bench:
	$(GO) test -run '^$$' -bench '$(QUERY_BENCH_SUITE)' -benchmem -benchtime 2s . \
		| $(GO) run ./cmd/benchreport -baseline BENCH_pr9_query_baseline.json \
			-note "Query-serving trajectory: per-sensor locks, snapshot reads, singleflight cold fetch" \
			-out BENCH_pr9_query.json
	@cat BENCH_pr9_query.json

# Station restart cost: full-archive replay vs checkpoint + bounded tail.
# Writes BENCH_pr6_recovery.json (the committed copy documents the gap).
recovery-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkRecover' -benchmem -benchtime 2s ./internal/station \
		| $(GO) run ./cmd/benchreport -note "Restart recovery: full replay vs checkpoint+tail" -out BENCH_pr6_recovery.json
	@cat BENCH_pr6_recovery.json

fuzz:
	$(GO) test -fuzz=FuzzDecode -fuzztime=30s ./internal/wire
	$(GO) test -run '^$$' -fuzz=FuzzReadFrame -fuzztime=30s ./internal/wire
	$(GO) test -run '^$$' -fuzz=FuzzScanSegment -fuzztime=30s ./internal/segstore
	$(GO) test -run '^$$' -fuzz=FuzzOpen -fuzztime=30s ./internal/outbox

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/weathermon
	$(GO) run ./examples/stockfeed
	$(GO) run ./examples/mixedstreams
	$(GO) run ./examples/netfeed

# The full paper-scale evaluation (takes minutes; see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments -run all

experiments-quick:
	$(GO) run ./cmd/experiments -run all -quick

clean:
	$(GO) clean ./...
