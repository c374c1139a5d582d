# Build/verify entry points. `make check` is the CI gate: gofmt, vet, a
# build of every cmd/* binary, the whole module's tests under the race
# detector, the full suite, then the tracked sizes (`make loc`: lines
# without and with tests, CLI flags, config fields, exported functions). `make bench` runs
# the repository benchmark (benchmark/, contract BENCHMARK.json) and
# refreshes the one committed snapshot, BENCH_ledger.txt; `make
# bench-gate` is the CI perf gate comparing a short run against it (see
# EXPERIMENTS.md §"Perf ledger").

GO ?= go
BIN ?= bin
CMDS := tsgen tsreport tsserve tsload tsbench tsgate tsrouter tscluster

.PHONY: all build test check vet race fuzz-smoke loc bench bench-gate tools fmt-check demos

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
# parser/kernel that breaks on its own seeds fails the build. Minimising a
# new input runs one attempt (-fuzzminimizetime 1x): the default 60 s would
# spend the five seconds minimising instead of executing. -fuzz takes
# one target of one package per run, so the loop asks each package for
# its targets (`go test -list`): a new Fuzz* function runs here by existing.
fuzz-smoke:
	@for pkg in $$($(GO) list ./...); do \
		targets=$$($(GO) test -list '^Fuzz' $$pkg) || exit 1; \
		for t in $$(echo "$$targets" | grep '^Fuzz'); do \
			echo "fuzz-smoke: $$t ($$pkg)"; \
			$(GO) test -run NONE -fuzz "^$$t$$" -fuzztime 5s -fuzzminimizetime 1x $$pkg || exit 1; \
		done; \
	done

# Fail if any file is not gofmt-clean (the first step of check).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The six tracked sizes (ROADMAP aim 2) CHANGES.md quotes before/after
# for every PR: net non-test lines of Go outside benchmark/; the same with
# _test.go files included (code that moves into or out of a test file
# shows only here); CLI flags declared by the tools (cmd/ plus the shared
# sets: cliobs for every tool, the edge model flags of tsserve/tscluster,
# the router model flags of tsrouter/tscluster); exported fields of the
# *Config, *Options and Params structs under internal/, as counted by
# TestConfigFieldsAreSet, the test that fails on a field nothing but a
# default or a test sets; exported functions and methods under internal/,
# as counted by TestExportedFuncsAreCalled, the test that fails on one
# no program reaches (from a main, an init, a package-level initializer or
# a checked Example); and packages under internal/ (`go list`; a package
# with one importer is a candidate to fold into it). A PR that says "no
# new knob" shows flags and config fields unchanged.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l | sed 's/$$/ lines/'
	@find . -name '*.go' -not -path './benchmark/*' | xargs cat | wc -l | sed 's/$$/ lines with tests/'
	@grep -rhoE '\b(flag|fs)\.(Bool|Duration|Float64|Func|Int|Int64|String|Uint|Uint64)?(Var)?\(' --include='*.go' cmd internal/obs/cliobs internal/edge/flags.go internal/fleet/flags.go | wc -l | sed 's/$$/ flags/'
	@$(GO) test -run '^TestConfigFieldsAreSet$$' -v . | grep -oE '[0-9]+ config fields$$'
	@$(GO) test -run '^TestExportedFuncsAreCalled$$' -v . | grep -oE '[0-9]+ exported functions$$'
	@$(GO) list ./internal/... | wc -l | sed 's/$$/ packages under internal\//'

check: fmt-check vet tools race test loc

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

# The demos as declared cells (demos_test.go): one edge gated both ways
# by the committed SLO policy, an injected breach tsgate must fail, the
# whole fleet behind its shield in one tscluster, the same tiers as
# separate tsserve/tsrouter processes, and the README quickstart (a tsgen
# file through tsreport -in). The test builds the real binaries,
# runs each cell on ephemeral ports and asserts every exit code, manifest
# and exit summary; `go test ./...` runs it too, this shows the logs.
demos:
	$(GO) test -count=1 -run '^TestDemos$$' -v .
