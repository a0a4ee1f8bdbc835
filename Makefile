GO ?= go

.PHONY: all build test ci fmt vet lint lockgraph cover race bench benchall benchcmp serve e2e generate-check clean

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
race:
	$(GO) test -race ./internal/obs ./internal/lp ./internal/server
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

# ci is the gate run before merging: static checks (gofmt, go vet and
# the custom analyzer suite), generated-file drift, a full build, and
# the race-instrumented solver tests.
ci: fmt vet lint generate-check build race

# serve runs the HTTP solve service locally (see DESIGN.md section 8).
serve:
	$(GO) run ./cmd/floorpland -addr 127.0.0.1:8080 -verbose

# e2e drives the compiled binaries end to end, including the floorpland
# boot / submit / poll / trace / SIGINT-drain cycle.
e2e:
	$(GO) test -run 'CLI|E2E' -v .

# bench runs the Table 1/Table 3 quick benches (including the Workers=1 vs
# Workers=4 pairs) plus the presolve node-count ablation and the portfolio
# race, and persists a machine-readable BENCH_<utc-date>.json snapshot
# (ns/op, util%, LP iters, nodes, portfolio TTFF, speedups) via
# cmd/benchjson.
bench:
	$(GO) test -bench='Table1|Table3|Presolve|Portfolio' -benchtime=1x -run=^$$ . > bench.out
	@cat bench.out
	$(GO) run ./cmd/benchjson -out BENCH_$$(date -u +%Y-%m-%d).json < bench.out
	@rm -f bench.out

# benchall runs every benchmark once without persisting a snapshot.
benchall:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# benchcmp diffs the two most recent committed BENCH_*.json snapshots
# and fails when a Table1* benchmark's B/op regressed by more than 10%
# (the allocation-regression gate for the paper-reproduction hot path).
benchcmp:
	@set -- $$(ls BENCH_*.json | sort | tail -2); \
	if [ $$# -lt 2 ]; then echo "benchcmp: need at least two BENCH_*.json snapshots"; exit 1; fi; \
	$(GO) run ./cmd/benchjson -diff -gate 10 $$1 $$2

clean:
	$(GO) clean ./...
