// Command search builds a Chosen Path similarity search index over a
// dataset file and answers point queries: for each query set, the ids of
// indexed sets with Jaccard similarity at least the threshold.
//
// Queries are read from -queries (same one-set-per-line format) or, if
// omitted, from standard input, one set per line. Output: one line per
// query with "queryIdx: id1:sim1 id2:sim2 ..." (empty after the colon if
// nothing was found).
//
// Usage:
//
//	search -input catalogue.txt -threshold 0.6 [-queries q.txt] [-all] [-trees 10] [-workers N]
//	       [-save-index ix.cps] [-load-index ix.cps]
//
// With -save-index the built index is snapshotted to a file after
// construction; with -load-index the index is restored from such a file
// instead of being built (so -input, -threshold, -trees and -seed are
// not needed — they are part of the snapshot).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"

	ssjoin "repro"
)

func main() {
	var (
		input     = flag.String("input", "", "catalogue dataset file (required)")
		queries   = flag.String("queries", "", "query dataset file (default: stdin)")
		threshold = flag.Float64("threshold", 0.5, "Jaccard similarity threshold in (0,1)")
		all       = flag.Bool("all", false, "report all matches per query instead of the best one, their top match (highest similarity, ties to the lower id)")
		trees     = flag.Int("trees", 0, "number of index trees (0 = default 10)")
		seed      = flag.Uint64("seed", 42, "random seed")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for index construction (1 = sequential; the built index is identical for any value)")
		saveIndex = flag.String("save-index", "", "snapshot the built index to this file")
		loadIndex = flag.String("load-index", "", "restore the index from a snapshot file instead of building from -input")
	)
	flag.Parse()

	var index *ssjoin.SearchIndex
	if *loadIndex != "" {
		var err error
		index, err = ssjoin.LoadSearchIndex(*loadIndex, *workers)
		if err != nil {
			fatalf("restoring %s: %v", *loadIndex, err)
		}
		fmt.Fprintf(os.Stderr, "search: restored index from %s\n", *loadIndex)
	} else {
		if *input == "" {
			fmt.Fprintln(os.Stderr, "search: -input is required (or -load-index)")
			flag.Usage()
			os.Exit(2)
		}
		if *threshold <= 0 || *threshold >= 1 {
			fatalf("threshold %v out of (0,1)", *threshold)
		}
		catalogue, err := ssjoin.LoadSets(*input)
		if err != nil {
			fatalf("loading %s: %v", *input, err)
		}
		index = ssjoin.NewSearchIndex(catalogue, *threshold, &ssjoin.SearchOptions{
			Trees:   *trees,
			Seed:    *seed,
			Workers: *workers,
		})
		fmt.Fprintf(os.Stderr, "search: indexed %d sets\n", len(catalogue))
	}
	if *saveIndex != "" {
		if err := index.Save(*saveIndex); err != nil {
			fatalf("saving %s: %v", *saveIndex, err)
		}
		fmt.Fprintf(os.Stderr, "search: saved index to %s\n", *saveIndex)
	}

	var qsets [][]uint32
	var err error
	if *queries != "" {
		qsets, err = ssjoin.LoadSets(*queries)
		if err != nil {
			fatalf("loading %s: %v", *queries, err)
		}
	} else {
		qsets, err = ssjoin.ReadSets(os.Stdin)
		if err != nil {
			fatalf("reading queries: %v", err)
		}
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for qi, q := range qsets {
		fmt.Fprintf(w, "%d:", qi)
		if *all {
			for _, m := range index.QueryAll(q) {
				fmt.Fprintf(w, " %d:%.3f", m.ID, m.Sim)
			}
		} else if id, sim, ok := index.Query(q); ok {
			fmt.Fprintf(w, " %d:%.3f", id, sim)
		}
		fmt.Fprintln(w)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "search: "+format+"\n", args...)
	os.Exit(1)
}
