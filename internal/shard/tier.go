package shard

import "fmt"

// Storage tiering: every ring shard is hot — its trie's arrays and the
// token array behind its sets on the heap — or cold: those arrays are the
// trees section and the token region of the shard's memory-mapped
// container, validated once at first touch. That is a residency state of
// one shard type (localShard) over one trie and one [][]uint32, so the two
// answer every query byte-identically (the model harness runs its whole
// grid across tiers) at the same cost per query; they trade resident heap
// for page cache and a first touch. A shard's tier is fixed when the shard
// is created and nothing moves it afterwards: LoadOptions.Tiering picks hot
// or cold for the shards a load opens, and Build, seals and compactions
// build theirs on the heap. So a cold ring that seals or compacts holds hot
// shards beside its cold ones until the next restore.

// Tier names a storage tier.
type Tier string

const (
	// TierHot keeps every shard's trie and sets on the heap — the default.
	TierHot Tier = "hot"
	// TierCold leaves every shard's trie and sets in its memory-mapped
	// container.
	TierCold Tier = "cold"
)

// ParseTier validates a tier name from a flag or an option. The empty
// string is TierHot: unset always meant hot.
func ParseTier(s string) (Tier, error) {
	switch Tier(s) {
	case "", TierHot:
		return TierHot, nil
	case TierCold:
		return TierCold, nil
	}
	return "", fmt.Errorf("shard: unknown storage tier %q (want hot or cold)", s)
}
