# Development entry points. Everything is plain `go` underneath; the
# targets just bundle the common invocations.

GO ?= go

.PHONY: all build test test-race race cover cover-gate bench bench-e2e bench-ledger bench-smoke bench-obs experiments fuzz fuzz-smoke chaos chaos-persist chaos-sessions fmt vet clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Alias: the race detector over the whole module (CI gate for the
# concurrency of the metrics registry and the server cache).
race: test-race

cover:
	$(GO) test -coverprofile=cover.out ./internal/... .
	$(GO) tool cover -func=cover.out | tail -1

# Coverage gate (CI): the search kernel, the multi-schema registry,
# the all-pairs closure index, and the interactive-session machinery
# (session state machine + WebSocket framing) are the subsystems whose
# regressions are silent (a wrong cached/materialized/streamed answer
# still looks like success), so their combined statement coverage must
# stay >= 80%.
COVER_GATE_MIN ?= 80.0
cover-gate:
	$(GO) test -coverprofile=cover_gate.out \
		-coverpkg=./internal/core/...,./internal/registry/...,./internal/closure/...,./internal/session,./internal/ws \
		./internal/core/... ./internal/registry/... ./internal/closure/... ./internal/server/... ./internal/session/... ./internal/ws/...
	@total=$$($(GO) tool cover -func=cover_gate.out | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	echo "combined core+registry+session coverage: $$total% (gate: $(COVER_GATE_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_GATE_MIN)" 'BEGIN { exit (t+0 >= min+0) ? 0 : 1 }' \
		|| { echo "coverage gate FAILED: $$total% < $(COVER_GATE_MIN)%"; exit 1; }

bench:
	$(GO) test -bench=. -benchmem -run xxx .

# The end-to-end benchmark (perfbench/, see BENCHMARK.json): boots the
# server in process, drives one seeded workload, checks every answer and
# prints the metrics as its last line. Pick the run with WORKLOAD=hot|
# cold|typing, SEED=n and RUN_SECONDS=n; TRACE=1 reports the per-layer
# metrics instead. Builds and writes only under .bench_build/.
WORKLOAD ?= cold
SEED ?= 1
RUN_SECONDS ?= 25
TRACE ?= 0
bench-e2e:
	bash perfbench/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds $(RUN_SECONDS) --trace $(TRACE)

# The benchmark ledger: every tracked lane in one BENCH_core.json, for
# tracking time/op and allocs/op across commits (see README
# "Performance"). Lanes: the search-kernel series, the closure-vs-kernel
# point query (the lookup/search ratio), the constrained-gap lanes
# (regex, predicate, degenerate .* and their composition against the
# in-run unconstrained baseline), the coldstart comparison (restore the
# 1000-class closure from its on-disk file vs rebuild it by search) and
# the tracer-overhead comparison (nil vs noop vs recording tracer; the
# tracing-disabled numbers are what the span pipeline must not move,
# enforced by TestWarmCompleteAllocs). Each go test must pass before
# the JSON is written, so a failing lane fails the target.
LEDGER_BENCH = UniversityTaName|SchemaScaling|ClosureUniversityTaName|Constrained|Coldstart
LEDGER_OUT ?= BENCH_core.json
BENCHTIME ?=
bench-ledger:
	$(GO) test -bench='$(LEDGER_BENCH)' $(BENCHTIME) -benchmem -run xxx -timeout 30m . > bench_output.txt
	$(GO) test -bench=TracerOverhead $(BENCHTIME) -benchmem -run xxx ./internal/core >> bench_output.txt
	$(GO) run ./cmd/benchjson < bench_output.txt > $(LEDGER_OUT)
	@echo wrote $(LEDGER_OUT)

# CI-sized variant: every ledger lane once, enough to prove each still
# runs (the constrained lanes check their pinned completion counts,
# coldstart checks restore and rebuild agree cell for cell) and the
# JSON pipeline still parses.
bench-smoke:
	$(MAKE) bench-ledger BENCHTIME=-benchtime=1x LEDGER_OUT=/dev/null

# Demonstrate that the observability layer costs ~nothing when off:
# compare nil vs noop vs recording tracers on the flagship query.
bench-obs:
	$(GO) test -bench=TracerOverhead -benchmem -count=5 -run xxx ./internal/core

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/experiments -all

# Continuous fuzzing of the two parsers and the end-to-end completion
# round trip (Ctrl-C to stop).
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=5m ./internal/pathexpr
	$(GO) test -fuzz=FuzzParseSDL -fuzztime=5m ./internal/sdl
	$(GO) test -fuzz=FuzzCompleteRoundTrip -fuzztime=5m ./internal/core
	$(GO) test -fuzz=FuzzSessionProtocol -fuzztime=5m ./internal/session

# CI-sized fuzzing: 30s per target, enough to catch parser and search
# regressions without holding up the pipeline.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s -run FuzzParse ./internal/pathexpr
	$(GO) test -fuzz=FuzzParseSDL -fuzztime=30s -run FuzzParseSDL ./internal/sdl
	$(GO) test -fuzz=FuzzCompleteRoundTrip -fuzztime=30s -run FuzzCompleteRoundTrip ./internal/core
	$(GO) test -fuzz=FuzzSessionProtocol -fuzztime=30s -run FuzzSessionProtocol ./internal/session

# The chaos drill on its own: fault injection under the race detector
# with concurrent clients (internal/server/chaos_test.go).
chaos:
	$(GO) test -race -run TestChaos -count=1 -v ./internal/server

# The crash/restart drill over durable state: 50 kill-9/restart cycles
# sharing one data directory, with injected disk faults, torn writes,
# and post-mortem file corruption — every boot differential-checked
# against a fresh compile (internal/registry/chaos_test.go), under the
# race detector.
chaos-persist:
	$(GO) test -race -run TestChaosPersist -count=1 -v ./internal/registry

# The interactive-session drill: 2000 concurrent WebSocket keystroke
# sessions against one server while a reloader hot-swaps the schema and
# fault injection corrupts sends and searches, under the race detector.
# Passes only if every session unwinds (zero leaked sessions, admission
# slots, snapshot refs, or goroutines) and a fresh session still
# completes afterwards (internal/server/sessions_test.go).
CHAOS_SESSIONS ?= 2000
chaos-sessions:
	PATHCOMPLETE_CHAOS_SESSIONS=$(CHAOS_SESSIONS) \
		$(GO) test -race -run TestChaosSessions -count=1 -v -timeout 10m ./internal/server

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	rm -f cover.out cover_gate.out test_output.txt bench_output.txt
