GO ?= go

.PHONY: all build test test-short ci fmt vet lint lockgraph cover race bench benchcmp serve e2e generate-check perfbench-check clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails when gofmt would rewrite any tracked Go file outside
# testdata/ (the analyzer fixtures there keep their own layout).
fmt:
	@out=$$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "fmt: gofmt -l lists:"; echo "$$out"; exit 1; fi

# lint runs the project's custom analyzers (ctxsolve, toleq, obsevent,
# locked, guardedby, lockorder, goroleak — see DESIGN.md sections 11
# and 15) over the whole repository. Any finding fails the target, as
# does drift of the lock-order graph from its committed golden dump.
lint:
	$(GO) run ./cmd/floorplanvet ./...

# lockgraph regenerates the blessed lock-order graph after a reviewed
# ordering change; `make lint` (and therefore `make ci`) fails until
# the committed dump matches what the analyzers observe.
lockgraph:
	$(GO) run ./cmd/floorplanvet -lockgraph internal/analysis/testdata/lockorder.golden ./...

test:
	$(GO) test ./...

# test-short runs every package's unit tests with -short, which skips
# the multi-second paper-table runs (internal/bench) and the larger
# end-to-end solves; about 10s on 2 CPUs.
test-short:
	$(GO) test -short ./...

# cover prints a per-package coverage summary and enforces a 70% floor on
# the LP engine, the branch and bound, and the static-analysis,
# model-builder, observability and portfolio-racing packages, whose
# correctness the rest of the gate leans on.
cover:
	$(GO) test -cover ./internal/... | tee cover.out
	@awk '/^ok/ && ($$2 == "afp/internal/analysis" || $$2 == "afp/internal/lp" || $$2 == "afp/internal/milp" || $$2 == "afp/internal/mipmodel" || $$2 == "afp/internal/obs" || $$2 == "afp/internal/portfolio") { \
		for (i = 1; i <= NF; i++) if ($$i ~ /^[0-9.]+%$$/) { pct = substr($$i, 1, length($$i)-1) + 0; \
			if (pct < 70) { printf "cover: %s at %s%% is under the 70%% floor\n", $$2, pct; bad = 1 } \
			else printf "cover: %s at %s%% meets the 70%% floor\n", $$2, pct } } \
		END { exit bad }' cover.out
	@rm -f cover.out

# race runs the race detector over the packages with concurrency-sensitive
# instrumentation and concurrency proper: the observability sinks, the
# solvers they observe, the model layer (presolve equivalence properties),
# the width-sweep driver and the HTTP service. The branch-and-bound
# packages run at GOMAXPROCS 1 and 2, so the default worker count
# (one per CPU) takes the multi-worker search even on a 1-CPU runner.
# The per-job trace log is appended by solver goroutines while SSE
# followers decode Since views of it and trace fetches decode snapshots,
# so its codec, trace-buffer and SSE follower tests run ten times over.
race:
	$(GO) test -race ./internal/obs ./internal/lp ./internal/server
	$(GO) test -race -count=10 -run 'EventLog|TraceBuffer|SSE' ./internal/obs ./internal/server
	$(GO) test -race -cpu 1,2 ./internal/milp ./internal/mipmodel ./internal/core ./internal/portfolio

# generate-check fails when internal/obs/schema.go is stale: it
# regenerates the event/span/histogram registries to a scratch path and
# byte-compares against the committed file. Run `go generate
# ./internal/obs` to refresh.
generate-check:
	$(GO) run ./internal/obs/schemagen -root . -out internal/obs/.schema_check
	@cmp internal/obs/.schema_check internal/obs/schema.go \
		|| { echo "generate-check: internal/obs/schema.go is stale; run: go generate ./internal/obs"; rm -f internal/obs/.schema_check; exit 1; }
	@rm -f internal/obs/.schema_check

# perfbench-check vets and unit-tests the benchmark harness. perfbench
# is a module of its own, so `go build ./...` and `make lint` never
# compile it, yet it imports core, server, mipmodel and obs. It does not
# run `go build ./...` there: for the one main package that writes a
# perfbench/perfbench binary.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test -short ./...

# ci is the gate run before merging: static checks (gofmt, go vet and
# the custom analyzer suite), generated-file drift, a full build, the
# short unit suite of every package, the benchmark module's vet and
# unit tests, and the race-instrumented solver tests.
ci: fmt vet lint generate-check build test-short perfbench-check race

# serve runs the HTTP solve service locally (see DESIGN.md section 8).
serve:
	$(GO) run ./cmd/floorpland -addr 127.0.0.1:8080 -verbose

# e2e drives the compiled binaries end to end, including the floorpland
# boot / submit / poll / trace / SIGINT-drain cycle.
e2e:
	$(GO) test -run 'CLI|E2E' -v .

# bench records a benchmark snapshot: perfbench's four workloads,
# untraced and traced, at seeds 1 to 5 (about 20 minutes on 2 CPUs),
# folded by cmd/benchjson into BENCH_<utc-date>.json with n, min,
# quartiles, median and max per metric, stamped with the host, the Go
# version and the commit. A run that fails stops the target, and
# benchjson refuses a run that reports "correct": false.
bench:
	for seed in 1 2 3 4 5; do \
		bash perfbench/run.sh --workload all --seed $$seed --seconds 20 || exit 1; \
	done > bench.out
	$(GO) run ./cmd/benchjson < bench.out
	@rm -f bench.out

# benchcmp diffs the two newest BENCH_*.json snapshots. It fails when a
# deterministic counter (a metric whose old runs all agree) changes or
# gains spread, or when an end-to-end metric's median worsens by more
# than both its BENCHMARK.json bound and the old interquartile range.
benchcmp:
	@set -- $$(ls BENCH_*.json | sort | tail -2); \
	if [ $$# -lt 2 ]; then echo "benchcmp: need at least two BENCH_*.json snapshots"; exit 1; fi; \
	$(GO) run ./cmd/benchjson -diff $$1 $$2

clean:
	$(GO) clean ./...
