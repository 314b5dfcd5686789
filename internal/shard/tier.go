package shard

import "fmt"

// Storage tiering: every ring shard is hot — its trie's arrays and the
// token array behind its sets on the heap — or cold: those arrays are the
// trees section and the token region of the shard's memory-mapped
// container. A load validates every shard file in full in either tier, so
// the tier only decides whether the validated arrays are copied to the heap.
// It is one *cpindex.Index either way, so the two answer every query
// byte-identically (the model harness runs its whole grid across tiers) at
// the same cost per query, and neither can fail one; they trade resident
// heap for page cache. A shard's tier is fixed when the shard is created and
// nothing moves it afterwards: LoadOptions.Tiering picks hot or cold for the
// shards a load opens, and Build, seals and compactions build theirs on the
// heap. So a cold ring that seals or compacts holds hot shards beside its
// cold ones until the next restore.

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
