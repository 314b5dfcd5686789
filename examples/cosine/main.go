// Cosine/angular similarity join via LSH embedding: the Section II-A
// reduction in action. Any LSHable similarity measure can be joined by
// embedding records into fixed-size token sets and running a Jaccard
// join at a converted threshold.
//
// Here the measure is angular similarity (1 - θ/π) of sets viewed as
// binary vectors, whose LSH family is SimHash. The embedding makes the
// join approximate in two ways: the per-pair recall of CPSJoin, and the
// estimation error of the t sampled hash functions.
//
// Run with:
//
//	go run ./examples/cosine
package main

import (
	"fmt"
	"math"

	ssjoin "repro"
)

// angular returns the angular similarity 1 - θ/π of two sets as binary
// vectors, where cos θ = |a∩b|/sqrt(|a||b|).
func angular(a, b []uint32) float64 {
	inter := 0
	m := make(map[uint32]bool, len(a))
	for _, x := range a {
		m[x] = true
	}
	for _, x := range b {
		if m[x] {
			inter++
		}
	}
	cos := float64(inter) / math.Sqrt(float64(len(a))*float64(len(b)))
	if cos > 1 {
		cos = 1
	}
	return 1 - math.Acos(cos)/math.Pi
}

func main() {
	// Documents as bags of term ids, with planted near-duplicates.
	sets := ssjoin.GenerateUniform(3000, 40, 50000, 5)
	sets, planted := ssjoin.PlantSimilarPairs(sets, 50, 0.8, 6)
	fmt.Printf("%d documents, %d planted near-duplicate pairs\n", len(sets), len(planted))

	// Angular threshold: J=0.8 pairs have cosine ~0.89, angular ~0.85.
	const lambdaAngular = 0.8

	// Embed with the SimHash family: every document becomes exactly 256
	// tokens; shared tokens correspond to agreeing SimHash bits.
	const t = 256
	emb := ssjoin.Embed(sets, t, 7, ssjoin.AngularFamily{})

	// Join the embedded sets at the converted Jaccard threshold.
	pairs, _ := ssjoin.CPSJoin(emb, ssjoin.EmbeddedThreshold(lambdaAngular, t), &ssjoin.Options{Seed: 8})
	fmt.Printf("embedded join at angular λ=%.2f reported %d pairs\n", lambdaAngular, len(pairs))

	// Check the output against the true angular similarity of the
	// originals: embedding error puts some pairs slightly below the
	// threshold, which is the documented trade-off of the reduction.
	below := 0
	worst := 1.0
	for _, p := range pairs {
		s := angular(sets[p.A], sets[p.B])
		if s < lambdaAngular {
			below++
			if s < worst {
				worst = s
			}
		}
	}
	fmt.Printf("pairs below the true angular threshold: %d (worst %.3f) — embedding estimation error\n",
		below, worst)

	// Recall on the planted near-duplicates.
	got := make(map[[2]int]bool, len(pairs))
	for _, p := range pairs {
		got[[2]int{p.A, p.B}] = true
	}
	hits := 0
	for _, pl := range planted {
		if angular(sets[pl[0]], sets[pl[1]]) < lambdaAngular {
			continue // planting noise dropped it below the threshold
		}
		if got[[2]int{pl[0], pl[1]}] || got[[2]int{pl[1], pl[0]}] {
			hits++
		}
	}
	fmt.Printf("planted pairs above the threshold recovered: %d\n", hits)
}
