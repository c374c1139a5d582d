# Build/verify entry points. `make check` is the CI gate: vet, a build
# of every cmd/* binary, the whole module's tests under the race
# detector, then the full suite. `make bench` records a local run in BENCH_local.txt and
# refreshes the machine-readable BENCH_*.json trajectory files;
# `make bench-gate` is the CI perf gate comparing a short run against
# the committed baselines (see EXPERIMENTS.md §"Perf trajectory").

GO ?= go
BIN ?= bin
CMDS := tsgen tsanalyze tscdnsim tsreport tscrawl tsserve tsload tsbench tsgate tsrouter tscluster tssort

# Benchmark selections backing the BENCH_*.json areas. The serve gate
# judges only the socket-free serve-path variants (the http variant
# rides in the trajectory file but is too noisy for a short CI run).
SERVE_BENCH := BenchmarkEdgeServe
STREAM_BENCH := BenchmarkRunStreaming|BenchmarkAnalyzeOnly|BenchmarkLRUChurn|BenchmarkReplayStream
STREAM_PKGS := ./internal/core ./internal/cdn
PIPELINE_BENCH := BenchmarkPipelineFull
GATE_MATCH_SERVE := /serve-
# Gate iteration counts: the serve variants are ~400ns/op, so they need
# enough iterations to amortize fixed per-run overhead (100x would read
# ~40% slow); the stream benchmarks are ms-scale ops where 100x is
# already seconds of work.
GATE_TIME_SERVE ?= 10000x
GATE_TIME_STREAM ?= 100x
GATE_TIME_PIPELINE ?= 20x
MAX_NS_REGRESS ?= 0.15
# The study benchmarks (stream and pipeline areas) allocate 10K-100K
# times per op across a worker pool; goroutine scheduling and map-growth
# timing jitter that count by a few parts in a thousand at GOMAXPROCS > 1,
# so their gates use a small relative allocs budget instead of the strict
# any-increase rule that guards the zero-alloc serve area.
MAX_ALLOCS_REGRESS_STUDY ?= 0.005

.PHONY: all build test check vet race bench bench-mem bench-baseline bench-baseline-serve bench-baseline-stream bench-baseline-pipeline bench-gate tools fmt-check serve-demo slo-demo slo-demo-breach cluster-demo

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

# Fail if any file is not gofmt-clean (CI runs this before check).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

check: vet tools race test

bench: tools
	$(GO) test -bench=. -benchmem -count=3 ./... | tee BENCH_local.txt
	$(BIN)/tsbench -area serve -match '$(SERVE_BENCH)' -config 'count=3,source=make-bench' \
		-in BENCH_local.txt -out BENCH_serve.json
	$(BIN)/tsbench -area stream -match '$(STREAM_BENCH)' -config 'count=3,source=make-bench' \
		-in BENCH_local.txt -out BENCH_stream.json
	$(BIN)/tsbench -area pipeline -match '$(PIPELINE_BENCH)' -config 'count=3,source=make-bench' \
		-in BENCH_local.txt -out BENCH_pipeline.json

# Memory benchmark of the streaming study core (fused
# generate→replay→analyze plus the analyze-only pipeline), appended to
# EXPERIMENTS.md so allocation regressions show up in review diffs, and
# refreshed into the BENCH_stream.json trajectory file.
bench-mem: tools
	@printf '\n### bench-mem (%s)\n\n```\n' "$$(date -u +%Y-%m-%dT%H:%M:%SZ)" >> EXPERIMENTS.md
	$(GO) test -run NONE -bench '$(STREAM_BENCH)' -benchmem $(STREAM_PKGS) | tee -a EXPERIMENTS.md \
		| $(BIN)/tsbench -area stream -config 'source=bench-mem' -out BENCH_stream.json
	@printf '```\n' >> EXPERIMENTS.md

# Refresh the committed BENCH_*.json baselines the CI bench-gate
# compares against. Run after deliberate perf-affecting changes and
# commit the updated files with them. One target per area, so that a
# change to the study path re-baselines stream and pipeline without
# rewriting the serve numbers it cannot have moved.
bench-baseline: bench-baseline-serve bench-baseline-stream bench-baseline-pipeline

bench-baseline-serve: tools
	$(GO) test -run NONE -bench '$(SERVE_BENCH)' -benchmem -count=3 . \
		| $(BIN)/tsbench -area serve -config 'count=3,source=bench-baseline' -out BENCH_serve.json

bench-baseline-stream: tools
	$(GO) test -run NONE -bench '$(STREAM_BENCH)' -benchmem -count=3 $(STREAM_PKGS) \
		| $(BIN)/tsbench -area stream -config 'count=3,source=bench-baseline' -out BENCH_stream.json

bench-baseline-pipeline: tools
	$(GO) test -run NONE -bench '$(PIPELINE_BENCH)' -benchmem -count=3 ./internal/core \
		| $(BIN)/tsbench -area pipeline -config 'count=3,source=bench-baseline' -out BENCH_pipeline.json

# CI perf gate: a short fixed-iteration run of each area, compared
# against the committed BENCH_*.json. Fails on >15% ns/op regression or
# an allocs/op increase (any at all on the serve area); the serve run and comparison are restricted
# to the socket-free serve-path variants (the http variant is too noisy
# for a short gate and rides only in the trajectory file).
bench-gate: tools
	$(GO) test -run NONE -bench '$(SERVE_BENCH)$(GATE_MATCH_SERVE)' -benchtime=$(GATE_TIME_SERVE) -benchmem -count=3 . \
		| $(BIN)/tsbench -area serve -config 'benchtime=$(GATE_TIME_SERVE),count=3,source=bench-gate' \
			-out $(BIN)/BENCH_serve.current.json
	$(BIN)/tsbench -baseline BENCH_serve.json -compare $(BIN)/BENCH_serve.current.json \
		-match '$(GATE_MATCH_SERVE)' -max-ns-regress $(MAX_NS_REGRESS)
	$(GO) test -run NONE -bench '$(STREAM_BENCH)' -benchtime=$(GATE_TIME_STREAM) -benchmem -count=3 $(STREAM_PKGS) \
		| $(BIN)/tsbench -area stream -config 'benchtime=$(GATE_TIME_STREAM),count=3,source=bench-gate' \
			-out $(BIN)/BENCH_stream.current.json
	$(BIN)/tsbench -baseline BENCH_stream.json -compare $(BIN)/BENCH_stream.current.json \
		-max-ns-regress $(MAX_NS_REGRESS) -max-allocs-regress $(MAX_ALLOCS_REGRESS_STUDY)
	$(GO) test -run NONE -bench '$(PIPELINE_BENCH)' -benchtime=$(GATE_TIME_PIPELINE) -benchmem -count=3 ./internal/core \
		| $(BIN)/tsbench -area pipeline -config 'benchtime=$(GATE_TIME_PIPELINE),count=3,source=bench-gate' \
			-out $(BIN)/BENCH_pipeline.current.json
	$(BIN)/tsbench -baseline BENCH_pipeline.json -compare $(BIN)/BENCH_pipeline.current.json \
		-max-ns-regress $(MAX_NS_REGRESS) -max-allocs-regress $(MAX_ALLOCS_REGRESS_STUDY)

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
		-workers $(DEMO_WORKERS) -manifest $(DEMO_DIR)/load-manifest.json \
		-bench-json $(DEMO_DIR)/BENCH_load.json; rc=$$?; \
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
