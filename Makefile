# Convenience targets for the SBR reproduction. Everything is plain
# `go` — the Makefile only names the common invocations.

GO ?= go

.PHONY: all build fmt-check vet test race chaos soak lint trace-gate selfmon-gate cover bench-full bench-smoke fuzz examples experiments experiments-quick clean

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

# Every benchmark in every package, at full measurement length.
bench-full:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: catches bit-rotted benchmark code
# without paying for a measurement run. Performance claims come from
# perfbench (bash perfbench/run.sh; see perfbench/README.md).
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

fuzz:
	$(GO) test -fuzz=FuzzDecode -fuzztime=30s ./internal/wire
	$(GO) test -run '^$$' -fuzz=FuzzReadFrame -fuzztime=30s ./internal/wire
	$(GO) test -run '^$$' -fuzz=FuzzScanSegment -fuzztime=30s ./internal/segstore
	$(GO) test -run '^$$' -fuzz=FuzzDecodeMetadata -fuzztime=30s ./internal/segstore
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
