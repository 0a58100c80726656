# Same commands CI runs (.github/workflows/ci.yml) — keep them in sync.

GO ?= go

# The benchmark selection `make bench` runs, overridable so CI can widen
# the run without editing this file:
#   make bench BENCH='BenchmarkBatchVsSequential|BenchmarkCacheHitMiss' BENCHTIME=5x
BENCH ?= BenchmarkBatchVsSequential
BENCHTIME ?= 2x

# Pinned staticcheck release, shared by `make staticcheck` and the CI
# step (bump both by changing only this line).
STATICCHECK_VERSION ?= 2025.1.1

# Pinned govulncheck release for `make govulncheck` (known-vulnerability
# scan of the module and its stdlib usage).
GOVULNCHECK_VERSION ?= v1.1.4

# Pinned golang.org/x/tools release for the extra vet-style analyzers
# (nilness, shadow) that plain `go vet` does not run.
XTOOLS_VERSION ?= v0.30.0

# Seconds each native fuzz target runs in the `make fuzz` smoke
# (nineteen targets: FuzzLevenshtein, FuzzBatchKernels, FuzzWithinKernels,
# FuzzSurviveColumns, FuzzCodeBounds, FuzzDecodeQuery,
# FuzzSnapshotHeader, FuzzWALRecord, FuzzTreePayload, FuzzRegionTreePayload,
# FuzzBPlusPayload, FuzzPagedTablePayload, FuzzPredicateParse,
# FuzzPredicateEval, FuzzCompiledPredicate, FuzzHilbertDecode,
# FuzzWritePaths, FuzzVolume, FuzzDatasetFile).
FUZZTIME ?= 10s

# Packages with a parallel build, the concurrent query engine, the
# update/query synchronization layer, the answer cache, the shared
# scratch pools of the batched kernel paths, or state memoized across
# indexes (the Hilbert decode tables): the race-detector gate of
# `make race`.
RACE_PKGS = ./internal/exec/... ./internal/epoch/... ./internal/server/... \
            ./internal/shard/... ./internal/table/... ./internal/ptree/... \
            ./internal/omni/... \
            ./internal/core/... ./internal/store/... ./internal/bench/... \
            ./internal/cache/... ./internal/fqt/... \
            ./internal/mtree/... ./internal/pmtree/... ./internal/persist/... \
            ./internal/bptree/... ./internal/spb/... \
            ./internal/pivot/... ./internal/dataset/... \
            ./internal/obs/... ./internal/plan/... ./internal/sfc/... \
            ./cmd/mserve/... .

# The example programs CI runs end to end so example rot fails the
# pipeline (each finishes in well under a second).
EXAMPLES = ./examples/quickstart ./examples/wordsearch ./examples/geosearch \
           ./examples/imagesearch ./examples/cachedsearch

.PHONY: all build cross benchmark-build benchmark-test test race fuzz bench bench-plan bench-sweep bench-spb bench-color \
        staticcheck govulncheck lint fmt vet examples loc ci

all: build

build:
	$(GO) build ./...

# The portable build: on arm64 and 386 the float64 L1 kernel is the
# generic Go body (kernels_other.go) and the row prefetch a no-op, so
# build and vet there too, or only amd64 would ever compile them.
cross:
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/core ./internal/table
	GOARCH=386 $(GO) build ./... && GOARCH=386 $(GO) vet ./internal/core ./internal/table

# The repository benchmark (benchmark/, BENCHMARK.json) is its own module
# with a `replace metricindex => ../`, so `go build ./...` above never
# compiles it; build and vet it here so an internal API break that
# would stop the benchmark from building fails CI.
benchmark-build:
	cd benchmark && $(GO) build ./... && $(GO) vet ./...

# The benchmark's own tests: manifest ↔ metric tables, every workload
# run short with its answers checked, and -compare (~10 s).
benchmark-test:
	cd benchmark && $(GO) test ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Short native-fuzzing smoke: each target fuzzes for FUZZTIME (Go allows
# one -fuzz target per invocation, hence one run each).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzLevenshtein -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzBatchKernels -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzWithinKernels -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzSurviveColumns -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzCodeBounds -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzDecodeQuery -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotHeader -fuzztime=$(FUZZTIME) ./internal/persist
	$(GO) test -run='^$$' -fuzz=FuzzWALRecord -fuzztime=$(FUZZTIME) ./internal/persist
	$(GO) test -run='^$$' -fuzz=FuzzTreePayload -fuzztime=$(FUZZTIME) ./internal/ptree
	$(GO) test -run='^$$' -fuzz=FuzzRegionTreePayload -fuzztime=$(FUZZTIME) ./internal/mtree
	$(GO) test -run='^$$' -fuzz=FuzzBPlusPayload -fuzztime=$(FUZZTIME) ./internal/bptree
	$(GO) test -run='^$$' -fuzz=FuzzPagedTablePayload -fuzztime=$(FUZZTIME) ./internal/table
	$(GO) test -run='^$$' -fuzz=FuzzPredicateParse -fuzztime=$(FUZZTIME) ./internal/plan
	$(GO) test -run='^$$' -fuzz=FuzzPredicateEval -fuzztime=$(FUZZTIME) ./internal/plan
	$(GO) test -run='^$$' -fuzz=FuzzCompiledPredicate -fuzztime=$(FUZZTIME) ./internal/plan
	$(GO) test -run='^$$' -fuzz=FuzzHilbertDecode -fuzztime=$(FUZZTIME) ./internal/sfc
	$(GO) test -run='^$$' -fuzz=FuzzWritePaths -fuzztime=$(FUZZTIME) ./internal/epoch
	$(GO) test -run='^$$' -fuzz=FuzzVolume -fuzztime=$(FUZZTIME) ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzDatasetFile -fuzztime=$(FUZZTIME) ./internal/dataset

bench:
	$(GO) test -bench='$(BENCH)' -benchtime=$(BENCHTIME) -run=^$$ .

# The planner's strategy-cost table (docs/HYBRID.md), one query per leg
# so it keeps compiling and running; raise -benchtime to measure.
bench-plan:
	$(GO) test -bench=BenchmarkFilteredStrategies -benchtime=1x -run=^$$ ./internal/plan

# The pivot table's column sweep on the blocks and radii pool queries
# visit (BenchmarkTableSweep, docs/KERNELS.md "Columns and the sweep"),
# once so it keeps compiling and running; raise -benchtime to measure.
bench-sweep:
	$(GO) test -bench=BenchmarkTableSweep -benchtime=1x -run=^$$ ./internal/table

# The SPB-tree's kNN and range queries at disk-spb-la's shape
# (BenchmarkSPBSearch, with compdists/op and PA/op), once so it keeps
# compiling and running; raise -benchtime to measure.
bench-spb:
	$(GO) test -bench=BenchmarkSPBSearch -benchtime=1x -run=^$$ ./internal/spb

# LAESA's kNN and range queries at table-color's shape
# (BenchmarkLAESAColor: 282-D L1 rows behind the narrowed mirror, with
# compdists/op), once so it keeps compiling and running; raise
# -benchtime to measure.
bench-color:
	$(GO) test -bench=BenchmarkLAESAColor -benchtime=1x -run=^$$ ./internal/table

staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# The repo's own static-analysis suite (internal/analysis, run by
# cmd/metriclint): epoch lock-section discipline, wire-codec symmetry +
# frozen on-disk constants, noalloc hot-path annotations, and error
# consumption in the durability packages. Pure stdlib — runs offline.
# See docs/STATIC_ANALYSIS.md. It also fails when a non-test file imports
# container/heap (best-first traversals queue on core.MinHeap), and when
# the compiler keeps a per-element bounds check (IsInBounds) in the
# distance kernels. That gate covers the Go kernels of
# internal/core/kernels.go only: it cannot see the amd64 assembly body
# (kernels_amd64.s), which the bit-identity tests hold instead.
lint:
	$(GO) run ./cmd/metriclint ./...
	@! grep -rl --include='*.go' --exclude='*_test.go' '"container/heap"' . || \
		{ echo 'lint: container/heap imported above; use core.MinHeap'; exit 1; }
	@out="$$($(GO) build -gcflags='metricindex/internal/core=-d=ssa/check_bce/debug=1' ./internal/core 2>&1)" || \
		{ echo "$$out"; exit 1; }; \
	! echo "$$out" | grep 'kernels\.go:.*IsInBounds' || \
		{ echo 'lint: bounds check left in a distance kernel above'; exit 1; }

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# go vet plus the x/tools analyzers it does not include: nilness (nil
# dereference paths) and shadow (shadowed variable rebinding). The extra
# analyzers download x/tools on first run, like staticcheck.
vet:
	$(GO) vet ./...
	$(GO) run golang.org/x/tools/go/analysis/passes/nilness/cmd/nilness@$(XTOOLS_VERSION) ./...
	$(GO) run golang.org/x/tools/go/analysis/passes/shadow/cmd/shadow@$(XTOOLS_VERSION) ./...

examples:
	@for e in $(EXAMPLES); do \
		echo "run $$e"; \
		$(GO) run $$e >/dev/null || exit 1; \
	done

# Non-test, non-comment, non-blank Go lines outside benchmark/ and
# testdata/: the figure ROADMAP aim 2 ("net line count goes down") is
# read off; then the number of packages holding non-test Go code (a
# directory of tests only is not one). CI echoes both in the test job.
loc:
	@find . -name '*.go' -not -path './benchmark/*' -not -name '*_test.go' \
		-not -path '*/testdata/*' | xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l
	@echo "packages with non-test Go code: $$($(GO) list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./... | grep -c .)"

# The full CI surface: the test, lint and bench jobs' steps (vet's extra
# analyzers, staticcheck and govulncheck need module downloads, so an
# offline run can cherry-pick the other targets individually — lint
# itself is pure stdlib). Performance numbers come from benchmark/
# (BENCHMARK.json), not from this target; `bench` is a does-it-run check.
ci: build cross benchmark-build vet fmt lint staticcheck govulncheck test benchmark-test race fuzz examples bench bench-plan bench-sweep bench-spb bench-color
