# Build/verify entry points. `make check` is the CI gate: vet, a build
# of every cmd/* binary, the whole module's tests under the race
# detector, the full suite, then the tracked sizes (`make loc`: lines
# without and with tests, CLI flags, config fields). `make bench` runs
# the repository benchmark (benchmark/, contract BENCHMARK.json) and
# refreshes the one committed snapshot, BENCH_ledger.txt; `make
# bench-gate` is the CI perf gate comparing a short run against it (see
# EXPERIMENTS.md §"Perf ledger").

GO ?= go
BIN ?= bin
CMDS := tsgen tsanalyze tscdnsim tsreport tscrawl tsserve tsload tsbench tsgate tsrouter tscluster tssort

.PHONY: all build test check vet race fuzz-smoke loc bench bench-gate tools fmt-check serve-demo slo-demo slo-demo-breach cluster-demo

all: build test

build:
	$(GO) build ./...

# Build every CLI binary into $(BIN); catches link-time breakage that
# `go build ./...` alone would miss reporting paths for.
tools:
	@mkdir -p $(BIN)
	@for c in $(CMDS); do $(GO) build -o $(BIN)/$$c ./cmd/$$c || exit 1; done
	@echo "built: $(CMDS:%=$(BIN)/%)"

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-check the whole module (~2.5 min on two cores); every package
# must stay race-clean.
race:
	$(GO) test -race ./...

# Five seconds of each fuzz target (CI runs this after check): the seed
# corpus plus whatever the mutator reaches, so a target that rots or a
# parser/kernel that breaks on its own seeds fails the build. -fuzz takes
# one target of one package per run.
fuzz-smoke:
	$(GO) test -run NONE -fuzz '^FuzzBlockReader$$' -fuzztime 5s ./internal/trace
	$(GO) test -run NONE -fuzz '^FuzzJSONReader$$' -fuzztime 5s ./internal/trace
	$(GO) test -run NONE -fuzz '^FuzzWireRoundTrip$$' -fuzztime 5s ./internal/edge
	$(GO) test -run NONE -fuzz '^FuzzDistanceBand$$' -fuzztime 5s ./internal/dtw

# Fail if any file is not gofmt-clean (CI runs this before check).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The four tracked sizes (ROADMAP aim 2) CHANGES.md quotes before/after
# for every PR, one expression each: net non-test lines of Go outside
# benchmark/; the same with _test.go files included (code that moves into
# or out of a test file shows only here); CLI flags declared by the tools
# (cmd/ plus the three every tool gets from cliobs); exported fields of
# the *Config, *Options and Params structs under internal/ (a line
# `A, B T` counts two). A PR that says "no new knob" shows the last two
# unchanged.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l | sed 's/$$/ lines/'
	@find . -name '*.go' -not -path './benchmark/*' | xargs cat | wc -l | sed 's/$$/ lines with tests/'
	@grep -rhoE '\b(flag|fs)\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)?(Var)?\(' --include='*.go' cmd internal/obs/cliobs | wc -l | sed 's/$$/ flags/'
	@find internal -name '*.go' -not -name '*_test.go' | xargs awk ' \
		/^type [A-Za-z]*(Config|Options|Params) struct \{/ { s = 1; next } \
		s && /^}/ { s = 0 } \
		s && match($$0, /^\t[A-Z][A-Za-z0-9]*(, [A-Z][A-Za-z0-9]*)* /) { f = substr($$0, RSTART, RLENGTH); n += gsub(/,/, ",", f) + 1 } \
		END { print n " config fields" }'

check: vet tools race test loc

# Every metric of every workload, end-to-end and per-layer, at the
# contract's run length (~5 min). Commit the refreshed BENCH_ledger.txt
# with a change that moves its numbers on purpose. The benchmark pins
# GOMAXPROCS to min(nproc, 2) itself and names it in the header line
# tsbench checks; the environment states the same value for the runs'
# first instructions.
bench:
	GOMAXPROCS=2 $(GO) run ./benchmark -all | tee BENCH_ledger.txt

# CI perf gate: a short pass of the same command, judged by tsbench
# against the committed snapshot under BENCHMARK.json's bounds. Only
# allocs_per_op, alloc_bytes_per_op, hit_ratio and fail_ratio are
# judged: they do not depend on the machine, timing does.
bench-gate:
	@mkdir -p $(BIN)
	$(GO) build -o $(BIN)/tsbench ./cmd/tsbench
	GOMAXPROCS=2 $(GO) run ./benchmark -all -seconds 2 > $(BIN)/BENCH_ledger.current.txt
	$(BIN)/tsbench BENCH_ledger.txt $(BIN)/BENCH_ledger.current.txt

# Live serving demo: generate a trace, start the HTTP edge in the
# background, replay the trace against it over loopback, then SIGINT the
# server to exercise graceful drain. Both run manifests (RPS, hit ratio,
# p50/p99 latency) land in $(DEMO_DIR).
DEMO_DIR ?= demo
DEMO_SCALE ?= 0.02
DEMO_ADDR ?= 127.0.0.1:8098
DEMO_WORKERS ?= 16

serve-demo: tools
	@mkdir -p $(DEMO_DIR)
	$(BIN)/tsgen -scale $(DEMO_SCALE) -seed 42 -out $(DEMO_DIR)/trace.tsb
	@$(BIN)/tsserve -addr $(DEMO_ADDR) -capacity 2147483648 \
		-manifest $(DEMO_DIR)/serve-manifest.json & \
	srv=$$!; sleep 1; \
	$(BIN)/tsload -in $(DEMO_DIR)/trace.tsb -target http://$(DEMO_ADDR) \
		-workers $(DEMO_WORKERS) -manifest $(DEMO_DIR)/load-manifest.json; rc=$$?; \
	kill -INT $$srv; wait $$srv; exit $$rc

# SLO demo: replay a trace against an edge running the committed demo
# policy, then assert the SLOs three ways — tsload's own run gate, a
# tsgate judgment of the live /slo windows, and a tsgate judgment of the
# written run summary. Any breach fails the target (CI's slo-gate job).
SLO_POLICY ?= policies/demo.slo
SLO_ADDR ?= 127.0.0.1:8099
SLO_BREACH_ADDR ?= 127.0.0.1:8100
SLO_BREACH_SCALE ?= 0.005

slo-demo: tools
	@mkdir -p $(DEMO_DIR)
	$(BIN)/tsgen -scale $(DEMO_SCALE) -seed 42 -out $(DEMO_DIR)/trace.tsb
	@$(BIN)/tsserve -addr $(SLO_ADDR) -capacity 2147483648 \
		-slo-policy $(SLO_POLICY) -trace-buffer 256 -trace-sample 64 & \
	srv=$$!; sleep 1; \
	$(BIN)/tsload -in $(DEMO_DIR)/trace.tsb -target http://$(SLO_ADDR) \
		-workers $(DEMO_WORKERS) -slo $(SLO_POLICY) \
		-summary $(DEMO_DIR)/load-summary.json; rc=$$?; \
	if [ $$rc -eq 0 ]; then $(BIN)/tsgate -target http://$(SLO_ADDR); rc=$$?; fi; \
	if [ $$rc -eq 0 ]; then $(BIN)/tsgate -run $(DEMO_DIR)/load-summary.json \
		-policy $(SLO_POLICY); rc=$$?; fi; \
	kill -INT $$srv; wait $$srv; exit $$rc

# Cluster demo: tscluster spawns a 3-backend fleet (one process for the
# Americas, one each for Europe and Asia) behind a tsrouter, tsload
# replays the demo trace through the router, and tsgate judges the demo
# policy against the collector's merged cluster /slo — the whole fleet
# gated as if it were one tsserve. The fleet runs with -shield, so every
# backend's misses resolve through the router's origin shield (peer-DC
# probing + concurrent-miss dedupe); on shutdown the router's exit
# summary ("[router] tsrouter: fills: ...") reports the cluster's origin
# egress and the bytes the fill hierarchy saved.
CLUSTER_ADDR ?= 127.0.0.1:8101

cluster-demo: tools
	@mkdir -p $(DEMO_DIR)
	$(BIN)/tsgen -scale $(DEMO_SCALE) -seed 42 -out $(DEMO_DIR)/trace.tsb
	@$(BIN)/tscluster -router-addr $(CLUSTER_ADDR) -shield \
		-dcs 'north-america,south-america;europe;asia' \
		-capacity 2147483648 -slo-policy $(SLO_POLICY) & \
	clu=$$!; sleep 3; \
	$(BIN)/tsload -in $(DEMO_DIR)/trace.tsb -target http://$(CLUSTER_ADDR) \
		-workers $(DEMO_WORKERS) -manifest $(DEMO_DIR)/cluster-load-manifest.json; rc=$$?; \
	if [ $$rc -eq 0 ]; then $(BIN)/tsgate -target http://$(CLUSTER_ADDR); rc=$$?; fi; \
	kill -INT $$clu; wait $$clu; exit $$rc

# Injected-breach counterpart: a 16 MiB cache forces a miss storm and
# 25 ms of origin latency rides on every miss, so the demo policy's
# hit-ratio floor and p99 target must both fail. The target asserts
# tsgate exits with exactly 1 (breach), proving the gate can fail.
slo-demo-breach: tools
	@mkdir -p $(DEMO_DIR)
	$(BIN)/tsgen -scale $(SLO_BREACH_SCALE) -seed 43 -out $(DEMO_DIR)/trace-breach.tsb
	@$(BIN)/tsserve -addr $(SLO_BREACH_ADDR) -capacity 16777216 -origin-latency 25ms \
		-slo-policy $(SLO_POLICY) & \
	srv=$$!; sleep 1; \
	$(BIN)/tsload -in $(DEMO_DIR)/trace-breach.tsb -target http://$(SLO_BREACH_ADDR) \
		-workers 64; \
	$(BIN)/tsgate -target http://$(SLO_BREACH_ADDR); rc=$$?; \
	kill -INT $$srv; wait $$srv; \
	if [ $$rc -ne 1 ]; then \
		echo "slo-demo-breach: tsgate exited $$rc, want 1 (breach)"; exit 1; \
	fi; \
	echo "slo-demo-breach: gate failed as expected (injected miss storm + slow origin)"
