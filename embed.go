package ssjoin

import (
	"fmt"

	"repro/internal/intset"
	"repro/internal/tabhash"
)

// Hasher is one sampled locality-sensitive hash function: for sets x and y,
// Pr[h(x) = h(y)] equals the similarity the family represents (equation (1)
// of the paper).
type Hasher func(set []uint32) uint32

// Family samples hash functions from an LSHable similarity family. A
// similarity measure sim is LSHable when such a family exists; Section
// II-A of the paper shows how this reduces similarity join under sim to
// set similarity join via a randomized embedding.
type Family interface {
	// Sample returns an independent hash function derived from seed.
	Sample(seed uint64) Hasher
}

// JaccardFamily is the MinHash family: Pr[h(x) = h(y)] = J(x, y).
type JaccardFamily struct{}

// Sample returns a MinHash function backed by tabulation hashing.
func (JaccardFamily) Sample(seed uint64) Hasher {
	table := tabhash.NewTable32(seed)
	return func(set []uint32) uint32 {
		if len(set) == 0 {
			return 0
		}
		best := set[0]
		bestHash := table.Hash(set[0])
		for _, tok := range set[1:] {
			if h := table.Hash(tok); h < bestHash {
				bestHash = h
				best = tok
			}
		}
		return best
	}
}

// AngularFamily is the SimHash family over binary vectors:
// Pr[h(x) = h(y)] = 1 - θ(x, y)/π, the angular similarity of the sets
// viewed as 0/1 vectors. Each sampled function is the sign of a random ±1
// projection.
type AngularFamily struct{}

// Sample returns a one-bit SimHash function.
func (AngularFamily) Sample(seed uint64) Hasher {
	table := tabhash.NewTable32(seed)
	return func(set []uint32) uint32 {
		sum := 0
		for _, tok := range set {
			if table.Hash(tok)&1 == 1 {
				sum++
			} else {
				sum--
			}
		}
		if sum >= 0 {
			return 1
		}
		return 0
	}
}

// Embed maps every input set to a set of exactly t tokens over a fresh
// dense universe, such that the Braun-Blanquet similarity |f(x)∩f(y)|/t of
// two embedded sets is an unbiased estimator of the family's similarity of
// the originals. Combined with EmbeddedThreshold this turns any LSHable
// similarity join into a Jaccard self-join:
//
//	emb := ssjoin.Embed(sets, 128, seed, ssjoin.AngularFamily{})
//	pairs, _ := ssjoin.CPSJoin(emb, ssjoin.EmbeddedThreshold(0.8, 128), nil)
//
// Note that the resulting join is approximate with respect to the original
// measure: the embedding introduces estimation error that the t parameter
// controls (the paper found t = 64 sufficient for thresholds >= 0.5 at
// >90% recall, and uses t = 128).
func Embed(sets [][]uint32, t int, seed uint64, family Family) [][]uint32 {
	if t <= 0 {
		panic(fmt.Sprintf("ssjoin: invalid embedding size %d", t))
	}
	hashers := make([]Hasher, t)
	for i := range hashers {
		hashers[i] = family.Sample(tabhash.Mix64(seed + uint64(i)))
	}
	type pv struct {
		pos uint32
		val uint32
	}
	dict := make(map[pv]uint32)
	out := make([][]uint32, len(sets))
	for si, set := range sets {
		emb := make([]uint32, t)
		for i, h := range hashers {
			key := pv{uint32(i), h(set)}
			id, ok := dict[key]
			if !ok {
				id = uint32(len(dict))
				dict[key] = id
			}
			emb[i] = id
		}
		out[si] = NormalizeSet(emb)
	}
	return out
}

// EmbeddedThreshold converts a similarity threshold λ on the original
// measure into the Jaccard threshold to use on sets embedded at size t.
// Embedded sets have fixed size t, so a pair sharing c tokens has
// Braun-Blanquet similarity B = c/t and Jaccard J = c/(2t−c), both
// increasing in c. The result is the Jaccard similarity of the smallest c
// with c/t >= λ, intset.MinShare(t, λ), so a pair meets J >= the result
// exactly when it meets B >= λ. The closed form λ/(2−λ) is not used: in
// floating point it can round above that Jaccard similarity and drop the
// pairs at B = λ (t = 50, λ = 0.04).
func EmbeddedThreshold(lambda float64, t int) float64 {
	if lambda <= 0 || lambda >= 1 {
		panic(fmt.Sprintf("ssjoin: lambda %v out of (0,1)", lambda))
	}
	if t <= 0 {
		panic(fmt.Sprintf("ssjoin: invalid embedding size %d", t))
	}
	c := intset.MinShare(t, lambda)
	if c == t {
		// Only identical sets pass, and a Jaccard threshold must stay below
		// 1: t/(t+1) lies between the t−1 pair's (t−1)/(t+1) and 1.
		return float64(t) / float64(t+1)
	}
	return float64(c) / float64(2*t-c)
}
