GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test test-benchmark surface race race-full vet fmt ledger fuzz-smoke clean

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
# the serving handler registers every endpoint under /v1/ only (pprof's
# opt-in mux lives in cmd/serve, not here), and there is one benchmark
# system: no BENCH_*.json artifact at the root, and cmd/experiments — the
# paper's tables and figures — links neither the serving stack nor net/http
# nor testing (internal/snapshot and internal/mmap are not on the list:
# internal/prep keeps the join's saved index in that container and maps it,
# and mmap is a leaf over syscall, not serving code). The join family stays
# one path each: a one-worker exec pool is the caller's goroutine, so no
# non-test Go file outside internal/exec (benchmark/ measures what it likes)
# compares a worker count with 1 or pins one to 1 (the recursion statistics
# are per-worker tallies, so asking for them leaves the worker count alone),
# and the second result set and its selector (PairSink, NewSink,
# AtomicCounters) do not come back. Join knobs no caller set stay deleted:
# no StrictBruteForce (the literal Algorithm 2 is what runs without
# sketches) or GlobalDepth (StopGlobal derives its depth) in non-test Go. The containment side
# is sorted arrays over the signature matrix: non-test internal/contain
# declares no map type (a hash table per r held every set 2T-1 times), and
# the KMV sketch nothing read stays deleted. A stored set is read one way,
# as a header over the token region snapshot.ReadSets validated: no
# per-candidate decoder (setBuf, mappedSets) or second sets decoder
# (DecodeSets) in non-test Go, and the containment side of a shard owns no
# sets (no containSide struct to put them on). A stored trie is read one way
# too, as typed views of the trees section: byte order lives in
# internal/snapshot/view.go, so non-test internal/cpindex imports no
# encoding/binary and trie.go allocates no trie array (Build pre-sizes its
# own in cpindex.go) — the per-field decoder cannot grow back. A tier is
# where a shard's bytes lie, chosen by the operator: hot and cold cost the
# same per query, so no policy moves shards on traffic (TierAuto,
# AutoColdBytes, Retier stay out of non-test Go), and a shard keeps the
# tier it was opened in: no runtime tier move (applyTiering, promote,
# demote, spool, encodeShardBytes, the promotion/demotion counters, a
# RuntimeOptions tier) in non-test Go outside benchmark/. The index is
# served from one process: CPSJoin and the Chosen Path index are single-machine
# algorithms, no ledger workload measured a remote shard, and on one
# machine moving the shards behind HTTP peers doubled query latency. So the
# remote backend stays deleted — no remoteShard, shardBackend interface,
# Distribute, placementState, hostedShardFor, KeepLocal or /v1/shard/
# endpoint in non-test Go. A shard is validated when it is built or opened,
# in either tier, so a query cannot fail: no 502, no query error counter, no
# compaction that skips a victim it cannot read, and no QueryErr or
# QueryContain beside Search in non-test Go outside benchmark/. A deleted id
# is one bit of one copy-on-write deleted set that seals and compactions
# only read: non-test internal/shard declares no id set as a map (the
# tombstone map that every seal and compaction rebuilt) and no
# markDroppedLocked or sortedTombstones. A best-match query is the
# all-matches answer reduced by cpindex.Top at every threshold, so the
# kernel's first-tree early exit and its plumbing (kindBest, a best
# method, the narrowed special case in Search) stay out of non-test Go
# outside benchmark/. Assembly stays in exactly two kernel files, each
# beside its portable Go reference: internal/verify/within_amd64.s, the
# sketch filter's POPCNT and AVX-512 loops (withinGo), and
# internal/tabhash/fold_amd64.s, the tabulation families' AVX-512 folds of
# a whole set (foldBitsGo for the sketch, argMinGo for the signature); no
# other *.s. The exact prefix-filter family
# is one package on one frame: internal/ppjoin stays folded into
# internal/allpairs, whose non-test Go declares no second frequency order
# (rankByFrequency, func reorder) beside dataset.RemapByFrequency. A
# threshold becomes integers in one place, internal/intset's rule (the
# division Jaccard computes, and MinOverlap, MinShare, SizeWindow from it):
# JaccardOverlapBound, whose float ceiling missed pairs at J = λ exactly,
# stays deleted, and no non-test Go outside internal/intset takes the
# ceiling of a product of λ (Ceil(lambda, Ceil(2 * lambda). Each experiment
# row's columns are defined once, by its header and cells, and Table.Write
# prints them as text or CSV: non-test internal/bench declares no
# per-format printer (func Print…, func CSV…), and Figure 2 is Table II's
# speedup column, not a derived series (Fig2FromTable2). MinHash LSH visits
# its buckets in a fixed order, so a join stopped at a recall target stops
# at the same bucket on every one-worker run, and CPSJoin splits and counts
# through the grouper: non-test internal/lshjoin and
# internal/core/cpsjoin.go declare no map at all (a map's iteration order
# is random, and the grouper numbers keys in order of first appearance).
# BayesLSH-lite is that join at k = 1 with a sequential sketch
# test, lshjoin.BayesJoin: internal/bayeslsh stays deleted and unimported,
# its pairs go through the one kernel (SizeCompatible, the per-pair size
# test, stays deleted), and its test is a refinement of that kernel's sketch
# filter (NewPruner and Survives( stay out of non-test Go). Every join that
# ends in verify.Pipeline repeats on verify.Repeat, the one repetition loop
# and stop rule: non-test internal/core/cpsjoin.go and internal/lshjoin build
# no scratches (NewScratches) and queue no roots (exec.Run) of their own.
# Sketch popcounts have one home: bits.OnesCount64 appears in non-test Go only in
# internal/verify (within and the sequential test), internal/sketch
# (Hamming) and internal/intset (the bitmap's count). The containment side
# is derived state, not stored: a shard signs and sorts its sets on its first
# containment query, whether it was built or loaded, so a shard file carries
# no contain section and nothing writes or reads one (Section("contain"),
# containHeader) or rebuilds a side from stored signatures (FromSignatures)
# in non-test Go. MinHash signing and sketching evaluate their hash functions
# token-major, on transposed tabulation families (tabhash.Family32 and its
# 32-bit half, tabhash.Low32): the
# one-function-at-a-time tables stay out of non-test internal/minhash and
# internal/sketch (no NewTable32( or NewTable64( call there outside a
# comment; the loops survive as the tests' references and in embed.go), and
# the fold of a token's hash values into the running minima lives in
# tabhash alone, as Family32.ArgMins and Low32.FoldBits: non-test
# internal/minhash and internal/sketch read no rows (no .Row( call). The
# search trie's builder groups a node's ids in linear time instead of
# sorting (value, id) keys (no slices.Sort(keys) in non-test trie.go). Every
# split and bucket numbers its keys through one grouper, internal/group:
# CPSJoin's split and its literal Algorithm 2, the trie builder and MinHash
# LSH keep only their own order and scatter. So there is one probe loop:
# the table's multiplicative hash (0x9e3779b1) appears in no non-test Go
# outside internal/group, and internal/cpindex declares no grouper type of
# its own. Chosen Path runs one way, on embedded sets: Braun-Blanquet, like
# any LSHable similarity, is joined by Embed, EmbeddedThreshold and CPSJoin,
# as Section II-A reduces it. The raw-set copy of Algorithms 1-2 (JoinBB,
# BBOptions, bbJoiner, the facade's BraunBlanquetJoin and BruteForceBB,
# intset.BraunBlanquetAtLeast) had no caller and checked nothing, so it
# stays deleted from every Go file, test files included.
surface:
	@out=$$(grep -rn 'Deprecated:' --include='*.go' .); if [ -n "$$out" ]; then echo "deprecated surface:"; echo "$$out"; exit 1; fi
	@out=$$(grep -n 'mux\.Handle' internal/shard/server.go | grep -v '("/v1/'); if [ -n "$$out" ]; then echo "endpoint outside /v1/:"; echo "$$out"; exit 1; fi
	@out=$$(ls BENCH_*.json 2>/dev/null); if [ -n "$$out" ]; then echo "second benchmark system (the ledger's JSON is the only one):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE 'workers\s*(<=|>)\s*1\b' --include='*.go' . | grep -v '_test\.go:' | grep -vE '^\./(internal/exec|benchmark)/'); if [ -n "$$out" ]; then echo "worker count compared with 1 outside internal/exec (hand exec the number instead):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE 'workers\s*=\s*1\b' --include='*.go' . | grep -v '_test\.go:' | grep -vE '^\./(internal/exec|benchmark)/'); if [ -n "$$out" ]; then echo "worker count pinned to 1 outside internal/exec (nothing above exec runs differently on one worker):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE 'StrictBruteForce|GlobalDepth' --include='*.go' . | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "a deleted join knob is back (no caller set it):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE 'PairSink|NewSink\(|AtomicCounters' --include='*.go' .); if [ -n "$$out" ]; then echo "a second result set or counter path:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'KMV' --include='*.go' .); if [ -n "$$out" ]; then echo "the KMV sketch is back (nothing read it):"; echo "$$out"; exit 1; fi
	@out=$$(grep -n 'map\[' internal/contain/*.go | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "a map type in internal/contain (its one structure is sorted arrays):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE 'setBuf|mappedSets|maxMappedSetSize|DecodeSets|type containSide' --include='*.go' . | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "a second way to read a stored set, or sets on the containment side:"; echo "$$out"; exit 1; fi
	@out=$$(grep -n '"encoding/binary"' internal/cpindex/*.go | grep -v '_test\.go:'; grep -n 'make(\[\]trie' internal/cpindex/trie.go); if [ -n "$$out" ]; then echo "a per-field trie codec in internal/cpindex (cast the section: snapshot.View, snapshot.Cast):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE 'TierAuto|AutoColdBytes|\bRetier\b' --include='*.go' . | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "a tier policy is back (hot and cold cost the same per query; the tier is the operator's choice):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE 'applyTiering|encodeShardBytes|func spool|\) (promote|demote)\(|tierPromotions|tierDemotions|(rt|ro)\.Tiering' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./benchmark/'); if [ -n "$$out" ]; then echo "a runtime tier move is back (a shard keeps the tier it was opened in):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE 'remoteShard|shardBackend|Distribute|placementState|hostedShardFor|KeepLocal|/v1/shard/' --include='*.go' . | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "the remote backend is back (the index is served from one process):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE 'StatusBadGateway|cps_query_errors_total|queryErrors|materializeVictims|\) QueryErr\(|\) QueryContain\(' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./benchmark/'); if [ -n "$$out" ]; then echo "a query error path is back (shards are validated when opened; only a bad request fails):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE 'markDroppedLocked|sortedTombstones|map\[int\]struct\{\}' --include='*.go' internal/shard | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "a second deletion structure is back (a deleted id is one bit of the deleted set; seals and compactions only read it):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE 'kindBest|\) best\(|narrowed :=' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./benchmark/'); if [ -n "$$out" ]; then echo "the best-match early exit is back (a best-match query is the all-matches answer reduced by cpindex.Top):"; echo "$$out"; exit 1; fi
	@out=$$(find . -name '*.s' -not -path './.bench_build/*' | sort | tr '\n' ' '); if [ "$$out" != "./internal/tabhash/fold_amd64.s ./internal/verify/within_amd64.s " ]; then echo "assembly other than the two kernels (internal/verify/within_amd64.s, internal/tabhash/fold_amd64.s):"; echo "$$out"; exit 1; fi
	@out=$$(grep -q '^func withinGo(' internal/verify/pipeline.go || echo withinGo; grep -q '^func foldBitsGo(' internal/tabhash/fold.go || echo foldBitsGo; grep -q '^func argMinGo(' internal/tabhash/fold.go || echo argMinGo); if [ -n "$$out" ]; then echo "an assembly kernel without its Go reference beside it:"; echo "$$out"; exit 1; fi
	@out=$$(grep -n '\.Row(' internal/minhash/*.go internal/sketch/*.go | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "a fold outside internal/tabhash (sign through Family32.ArgMins, sketch through Low32.FoldBits):"; echo "$$out"; exit 1; fi
	@out=$$(ls -d internal/ppjoin 2>/dev/null; grep -nE 'rankByFrequency|func reorder' internal/allpairs/*.go | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "a second copy of the exact prefix-filter family (PPJoin lives in internal/allpairs; its one frequency order is dataset.RemapByFrequency):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'JaccardOverlapBound' --include='*.go' .; grep -rnE 'Ceil\((2 \* )?lambda' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./internal/intset/'); if [ -n "$$out" ]; then echo "a threshold bound outside internal/intset (take MinOverlap, MinShare or SizeWindow):"; echo "$$out"; exit 1; fi
	@out=$$(grep -nE 'func (Print|CSV)[A-Z]|Fig2FromTable2' internal/bench/*.go | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "a per-format printer in internal/bench (a row's header and cells print both formats through Table.Write):"; echo "$$out"; exit 1; fi
	@out=$$(grep -n 'map\[' internal/lshjoin/*.go internal/core/cpsjoin.go | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "a map in internal/lshjoin or internal/core/cpsjoin.go (number keys through internal/group; a map's iteration order moves the recall-stop point):"; echo "$$out"; exit 1; fi
	@out=$$(ls -d internal/bayeslsh 2>/dev/null; grep -rn '"repro/internal/bayeslsh"' --include='*.go' .); if [ -n "$$out" ]; then echo "internal/bayeslsh is back (BayesLSH-lite is lshjoin.BayesJoin):"; echo "$$out"; exit 1; fi
	@out=$$(grep -nE 'NewScratches\(|exec\.Run\(' internal/core/cpsjoin.go internal/lshjoin/*.go | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "a second repetition loop (the Pipeline joins repeat on verify.Repeat):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE 'SizeCompatible|NewPruner|Survives\(' --include='*.go' . | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "a per-pair filter beside the kernel (the size window and the sequential test run in verify.Pipeline):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'bits\.OnesCount64' --include='*.go' . | grep -v '_test\.go:' | grep -vE '^\./internal/(verify|sketch|intset)/'); if [ -n "$$out" ]; then echo "a popcount outside internal/verify, internal/sketch and internal/intset (sketch distances are within's or sketch.Hamming's):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE 'FromSignatures|containHeader|Section\("contain"' --include='*.go' . | grep -v '_test\.go:'); if [ -n "$$out" ]; then echo "the containment side is stored again (it is derived: built from the sets on the first containment query):"; echo "$$out"; exit 1; fi
	@out=$$(grep -nE 'NewTable(32|64)\(' internal/minhash/*.go internal/sketch/*.go | grep -v '_test\.go:' | grep -vE '^[^:]+:[0-9]+:\s*//'); if [ -n "$$out" ]; then echo "a one-function-at-a-time hash table in internal/minhash or internal/sketch (sign on tabhash.Family32, sketch on tabhash.Low32):"; echo "$$out"; exit 1; fi
	@out=$$(grep -Hn 'slices\.Sort(keys)' internal/cpindex/trie.go); if [ -n "$$out" ]; then echo "the trie builder sorts its keys again (group a node's ids in linear time, through internal/group):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn '0x9e3779b1' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./internal/group/'; grep -n 'type grouper' internal/cpindex/*.go); if [ -n "$$out" ]; then echo "a second probe loop (number keys through internal/group's one table):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE 'JoinBB|BBOptions|BraunBlanquetJoin|BruteForceBB|bbJoiner|BraunBlanquetAtLeast' --include='*.go' .); if [ -n "$$out" ]; then echo "the raw-set Braun-Blanquet join is back (join Braun-Blanquet through Embed, EmbeddedThreshold and CPSJoin):"; echo "$$out"; exit 1; fi
	@deps=$$($(GO) list -deps ./cmd/experiments) || exit 1; out=$$(echo "$$deps" | grep -xE 'repro/internal/(shard|cpindex|contain|metrics)|net/http|testing'); if [ -n "$$out" ]; then echo "cmd/experiments links the serving stack:"; echo "$$out"; exit 1; fi

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

# ledger is the one performance target: the end-to-end perf ledger in
# benchmark/ (see benchmark/README.md), run in the form BENCHMARK.json runs
# it. It builds cmd/ssjoin and cmd/serve into .bench_build/, drives them as
# child processes on all four workloads, checks their output (and exits
# non-zero if a check fails) and prints, per workload, the metrics and the
# one-line JSON result the driver reads; add --out FILE for one JSON file.
ledger:
	bash benchmark/run.sh --workload all --seed 1

# fuzz-smoke runs each native fuzz target briefly (FUZZTIME per target,
# default 10s) against the decode surfaces: the snapshot container, the
# directory manifest, the cpindex codec and the prep index. The corpus seeds
# are valid snapshots; the contract is error-not-panic on any mutation, and
# whatever the trie validator accepts must be safe to query. FuzzDecode and
# FuzzMappedDecode drive the same bytes through the heap and the mapped
# view and require them to agree; FuzzReadFrom requires whatever prep
# accepts to serialize back to the bytes it came from. FuzzWithin runs the
# sketch filter's loop, the path picked at start-up and every path the CPU
# has (withinGo, withinPOPCNT, withinAVX512 with its masked last group of
# eight), on raw words at any bound and requires exactly the rows
# sketch.Hamming puts within it. FuzzIntersect runs the intersection merges on arbitrary sets
# and requires every exact threshold decision (JaccardAtLeast,
# ContainmentAtLeast, Verifier.Verify) to be the similarity's own division
# compared with a fuzzed threshold. FuzzFold runs the tabulation families'
# folds, the path picked at start-up and the Go loops, on arbitrary keys:
# the signature's at 1 to 600 functions and the 32-bit sketch fold at 1 to
# 9 words, and requires both to give every function's arg-min key and the
# low bit of its 32-bit minimum under NewTable32.
# FuzzGroup groups arbitrary 32- and 64-bit keys, twice on one grouper, and
# requires the numbers, distinct keys and counts of a map's first-appearance
# numbering. CI runs this on every PR; crashers land in testdata/fuzz/ for
# replay.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzContainer$$' -fuzztime $(FUZZTIME) ./internal/snapshot
	$(GO) test -run '^$$' -fuzz '^FuzzManifest$$' -fuzztime $(FUZZTIME) ./internal/snapshot
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/cpindex
	$(GO) test -run '^$$' -fuzz '^FuzzMappedDecode$$' -fuzztime $(FUZZTIME) ./internal/cpindex
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrom$$' -fuzztime $(FUZZTIME) ./internal/prep
	$(GO) test -run '^$$' -fuzz '^FuzzWithin$$' -fuzztime $(FUZZTIME) ./internal/verify
	$(GO) test -run '^$$' -fuzz '^FuzzIntersect$$' -fuzztime $(FUZZTIME) ./internal/intset
	$(GO) test -run '^$$' -fuzz '^FuzzFold$$' -fuzztime $(FUZZTIME) ./internal/tabhash
	$(GO) test -run '^$$' -fuzz '^FuzzGroup$$' -fuzztime $(FUZZTIME) ./internal/group

clean:
	rm -rf .bench_build/
