GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test test-benchmark surface race race-full vet fmt bench bench-micro bench-smoke bench-go fuzz-smoke clean

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-benchmark vets and unit-tests the perf ledger's harness. benchmark/
# is a module of its own that imports repro/internal/..., so `go build ./...`
# and `go test ./...` above never compile it: without this target an
# internal API change can break the perf pipeline with every check green.
# Its tests start no child processes and take about a second.
test-benchmark:
	cd benchmark && $(GO) vet . && $(GO) test .

# surface keeps the API from growing back what was deleted: no Go file may
# carry a "Deprecated:" marker (deprecated surface is removed, not kept),
# and the serving handler registers every endpoint under /v1/ only (pprof's
# opt-in mux lives in cmd/serve, not here).
surface:
	@out=$$(grep -rn 'Deprecated:' --include='*.go' .); if [ -n "$$out" ]; then echo "deprecated surface:"; echo "$$out"; exit 1; fi
	@out=$$(grep -n 'mux\.Handle' internal/shard/server.go | grep -v '("/v1/'); if [ -n "$$out" ]; then echo "endpoint outside /v1/:"; echo "$$out"; exit 1; fi

# race is the quick local loop (-short skips the slowest suites);
# race-full runs the entire suite under the race detector and is what CI
# runs — same name, same meaning, locally and in CI.
race:
	$(GO) test -race -short ./...

race-full:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt fails (listing the offending files) if any file needs gofmt — the
# same gate CI enforces.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# bench records the performance trajectory for cross-PR comparison:
# parallel join scaling (every algorithm at every worker count, with the
# determinism check), sharded-serving batch-query throughput (every
# shard count at every worker count, with the same check), the query
# microbenchmarks, and the containment-search accuracy rows
# (precision/recall/F1 vs brute-force ground truth, recall gated in CI).
bench:
	$(GO) run ./cmd/experiments -quiet -format json parallel > BENCH_parallel.json
	@echo "wrote BENCH_parallel.json"
	$(GO) run ./cmd/experiments -quiet -format json serving > BENCH_serving.json
	@echo "wrote BENCH_serving.json"
	$(GO) run ./cmd/experiments -quiet -format json query > BENCH_query.json
	@echo "wrote BENCH_query.json"
	$(GO) run ./cmd/experiments -quiet -format json accuracy > BENCH_accuracy.json
	@echo "wrote BENCH_accuracy.json"

# bench-micro records just the point-query microbenchmarks (Query /
# QueryAll / QueryBatch ns/op, allocs/op and qps at the cpindex level and,
# at the shard level, with the result cache off and on, measured with
# testing.Benchmark). Every row's answers are checked identical to its
# reference, and CI additionally requires the cpindex rows to report
# 0 allocs/op.
bench-micro:
	$(GO) run ./cmd/experiments -quiet -format json query > BENCH_query.json
	@echo "wrote BENCH_query.json"

# bench-smoke is the reduced bench CI runs on every PR (small synthetic
# datasets, same JSON schema): the per-PR perf trajectory the ROADMAP
# asks for, uploaded as workflow artifacts.
bench-smoke:
	$(GO) run ./cmd/experiments -quiet -format json -scale smoke parallel > BENCH_parallel.json
	@echo "wrote BENCH_parallel.json (smoke scale)"
	$(GO) run ./cmd/experiments -quiet -format json -scale smoke serving > BENCH_serving.json
	@echo "wrote BENCH_serving.json (smoke scale)"
	$(GO) run ./cmd/experiments -quiet -format json -scale smoke query > BENCH_query.json
	@echo "wrote BENCH_query.json (smoke scale)"
	$(GO) run ./cmd/experiments -quiet -format json -scale smoke accuracy > BENCH_accuracy.json
	@echo "wrote BENCH_accuracy.json (smoke scale)"

# bench-go runs the Go testing benchmarks for the same scaling curves.
bench-go:
	$(GO) test -run '^$$' -bench 'Parallel' -benchmem .

# fuzz-smoke runs each native fuzz target briefly (FUZZTIME per target,
# default 10s) against the decode surfaces: the snapshot container, the
# directory manifest, the cpindex codec and the prep index. The corpus seeds
# are valid snapshots; the contract is error-not-panic on any mutation, and
# whatever the trie validator accepts must be safe to query. FuzzDecode and
# FuzzMappedDecode drive the same bytes through the heap and the mapped
# view and require them to agree; FuzzReadFrom requires whatever prep
# accepts to serialize back to the bytes it came from. CI runs this on
# every PR; crashers land in testdata/fuzz/ for replay.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzContainer$$' -fuzztime $(FUZZTIME) ./internal/snapshot
	$(GO) test -run '^$$' -fuzz '^FuzzManifest$$' -fuzztime $(FUZZTIME) ./internal/snapshot
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/cpindex
	$(GO) test -run '^$$' -fuzz '^FuzzMappedDecode$$' -fuzztime $(FUZZTIME) ./internal/cpindex
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrom$$' -fuzztime $(FUZZTIME) ./internal/prep

clean:
	rm -f BENCH_parallel.json BENCH_serving.json BENCH_query.json BENCH_accuracy.json
