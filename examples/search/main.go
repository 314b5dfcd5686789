// Online similarity search with the Chosen Path index: build the index
// once over a catalogue, then answer point queries as they arrive — the
// search-structure counterpart of CPSJoin (both traverse the same random
// splitting trees; the join streams them, the index stores them).
//
// Run with:
//
//	go run ./examples/search
package main

import (
	"fmt"
	"time"

	ssjoin "repro"
)

func main() {
	// Catalogue: 20k sets with near-duplicate mass planted.
	catalogue := ssjoin.GenerateUniform(20000, 30, 200000, 21)
	catalogue, planted := ssjoin.PlantSimilarPairs(catalogue, 200, 0.8, 22)
	fmt.Printf("catalogue: %d sets\n", len(catalogue))

	const lambda = 0.6
	start := time.Now()
	index := ssjoin.NewSearchIndex(catalogue, lambda, &ssjoin.SearchOptions{Seed: 23})
	fmt.Printf("index built in %.2fs\n", time.Since(start).Seconds())

	// Queries: one side of each planted pair; the other side is the
	// neighbor the index should find (besides the query itself, which is
	// indexed too — so we use QueryAll and look for a non-self hit).
	found, queries := 0, 0
	start = time.Now()
	for _, p := range planted {
		q := catalogue[p[0]]
		if ssjoin.Jaccard(q, catalogue[p[1]]) < lambda {
			continue
		}
		queries++
		for _, m := range index.QueryAll(q) {
			if m.ID == p[1] {
				found++
				break
			}
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("%d/%d planted neighbors found (%.1f%%), %.2fms per query\n",
		found, queries, 100*float64(found)/float64(queries),
		elapsed.Seconds()*1000/float64(queries))

	// A single point lookup.
	q := catalogue[planted[0][0]]
	if id, sim, ok := index.Query(q); ok {
		fmt.Printf("Query(catalogue[%d]) -> set %d with J=%.2f\n", planted[0][0], id, sim)
	}
}
