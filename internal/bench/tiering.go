package bench

import (
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/shard"
)

// TieringReport is the storage-tier measurement recorded with the
// serving rows: the same saved index restored hot (every section read,
// sets on the heap) and cold (mapped, read lazily), comparing restore
// latency against each other and against building from scratch, the
// Go-visible resident memory, and — the contract the tiers are allowed to
// differ on nothing else — byte-identity of every query answer. CI gates
// on Identical, on the cold open being no slower than the hot restore, and
// on the hot restore being no slower than the build it replaces: a
// snapshot that loads slower than a rebuild is not worth having.
type TieringReport struct {
	Dataset string  `json:"dataset"`
	Lambda  float64 `json:"lambda"`
	Shards  int     `json:"shards"`
	Sets    int     `json:"sets"`
	// BuildSeconds is the best-of-N shard.Build of the index that was
	// saved — what a restart without a snapshot would pay.
	BuildSeconds float64 `json:"build_seconds"`
	// Restore latency: best-of-N Load of the same directory per tier.
	HotRestoreSeconds  float64 `json:"hot_restore_seconds"`
	ColdRestoreSeconds float64 `json:"cold_restore_seconds"`
	// RestoreSpeedup is hot/cold — how much faster the lazy open is than
	// reading everything. Informational.
	RestoreSpeedup float64 `json:"restore_speedup"`
	// Resident heap bytes retained by one loaded index per tier
	// (steady-state HeapAlloc delta after GC). Cold shards keep their
	// bytes in the page cache, not the Go heap, so ColdResidentBytes
	// excludes the mapped containers.
	HotResidentBytes  uint64 `json:"hot_resident_bytes"`
	ColdResidentBytes uint64 `json:"cold_resident_bytes"`
	// Queries ran against both restored indexes; Identical is the
	// tiering equivalence contract: cold answers byte-identical to hot.
	Queries   int  `json:"queries"`
	Identical bool `json:"tiering_identical"`
}

// heapLive forces a collection and reports live heap bytes.
func heapLive() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// RunTieringBench saves one sharded index and restores it hot and cold,
// recording the build-versus-restore and resident-memory trades plus the
// cold-query equivalence flag. Timings are best-of-N (N ≥ 3 for the build,
// N ≥ 5 for the millisecond-scale restores) so the comparisons are stable
// at smoke scale.
func RunTieringBench(w Workload, cfg Config, progress io.Writer) TieringReport {
	const lambda = 0.5
	const shards = 4
	out := TieringReport{Dataset: w.Name, Lambda: lambda, Shards: shards, Sets: len(w.Sets), Queries: len(w.Sets)}
	fail := func(err error) TieringReport {
		if progress != nil {
			fmt.Fprintf(progress, "tiering  %-12s FAILED: %v\n", w.Name, err)
		}
		return out
	}

	runs := maxInt(cfg.Runs, 3)
	var x *shard.Index
	out.BuildSeconds = timed(runs, func() {
		x = shard.Build(w.Sets, lambda, &shard.Options{Shards: shards, Seed: cfg.Seed, Workers: cfg.Workers})
	}).Seconds()
	x.Flush()
	want, err := x.QueryBatchErr(w.Sets)
	if err != nil {
		return fail(err)
	}
	dir, err := os.MkdirTemp("", "cps-tiering-*")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	if err := x.Save(dir); err != nil {
		return fail(err)
	}

	restore := func(tier shard.Tier) (*shard.Index, float64, uint64, error) {
		var ix *shard.Index
		var loadErr error
		d := timed(maxInt(runs, 5), func() {
			ix, loadErr = shard.LoadWithOptions(dir, shard.LoadOptions{Workers: cfg.Workers, Tiering: tier})
		})
		if loadErr != nil {
			return nil, 0, 0, loadErr
		}
		// Steady-state retention: reload once more across a GC'd baseline
		// so the delta is what one resident index pins, not load churn.
		before := heapLive()
		ix, loadErr = shard.LoadWithOptions(dir, shard.LoadOptions{Workers: cfg.Workers, Tiering: tier})
		if loadErr != nil {
			return nil, 0, 0, loadErr
		}
		resident := heapLive() - before
		runtime.KeepAlive(ix)
		return ix, d.Seconds(), resident, nil
	}

	hot, hotSec, hotRes, err := restore(shard.TierHot)
	if err != nil {
		return fail(err)
	}
	cold, coldSec, coldRes, err := restore(shard.TierCold)
	if err != nil {
		return fail(err)
	}
	out.HotRestoreSeconds, out.HotResidentBytes = hotSec, hotRes
	out.ColdRestoreSeconds, out.ColdResidentBytes = coldSec, coldRes
	if coldSec > 0 {
		out.RestoreSpeedup = hotSec / coldSec
	}
	if st := cold.Stats(); st.ColdShards == 0 || st.HotShards != 0 {
		return fail(fmt.Errorf("cold restore produced %d cold / %d hot shards", st.ColdShards, st.HotShards))
	}

	hotGot, err1 := hot.QueryBatchErr(w.Sets)
	coldGot, err2 := cold.QueryBatchErr(w.Sets)
	if err1 != nil || err2 != nil {
		if err1 == nil {
			err1 = err2
		}
		return fail(err1)
	}
	out.Identical = equalBatches(want, hotGot) && equalBatches(want, coldGot)
	if progress != nil {
		fmt.Fprintf(progress, "tiering  %-12s shards=%d build=%.4fs hot=%.4fs cold=%.4fs resident=%d/%d identical=%v\n",
			w.Name, shards, out.BuildSeconds, hotSec, coldSec, hotRes, coldRes, out.Identical)
	}
	return out
}

// PrintTiering writes the tiering report for human consumption.
func PrintTiering(w io.Writer, r TieringReport) {
	fmt.Fprintf(w, "%-12s %7s %10s %12s %12s %14s %14s %10s\n",
		"Dataset", "shards", "build", "hot_restore", "cold_restore", "hot_resident", "cold_resident", "identical")
	fmt.Fprintf(w, "%-12s %7d %9.4fs %11.4fs %11.4fs %14d %14d %10v\n",
		r.Dataset, r.Shards, r.BuildSeconds, r.HotRestoreSeconds, r.ColdRestoreSeconds,
		r.HotResidentBytes, r.ColdResidentBytes, r.Identical)
}
