package shard

import "fmt"

// Storage tiering: every ring shard is hot — its trie's arrays and the
// token array behind its sets on the heap — or cold: those arrays are the
// trees section and the token region of the shard's memory-mapped
// container, validated once at first touch. That is a residency state of
// one shard type (localShard) over one trie and one [][]uint32, so the two
// answer every query byte-identically (the model harness runs its whole
// grid across tiers) at the same cost per query; they trade resident heap
// for page cache and a first touch. The tier is the operator's choice and
// nothing else's: LoadOptions.Tiering or the manifest's saved runtime state
// at load, Configure at runtime, each moving every shard the ring holds at
// that moment. A shard a later seal or compaction builds is built on the
// heap, so a cold ring that seals or compacts holds hot shards beside its
// cold ones until the tier is applied again. No policy moves shards on
// traffic — the two tiers cost the same per query, so query frequency has
// nothing to arbitrate. Moves happen in place under compactMu (serialized
// with ring replacement) with a generation bump and no version bump: moving
// where a shard's bytes live never changes what it answers.

// Tier names a storage tier.
type Tier string

const (
	// TierHot keeps every shard's trie and sets on the heap — the default.
	TierHot Tier = "hot"
	// TierCold leaves every shard's trie and sets in its memory-mapped
	// container.
	TierCold Tier = "cold"
)

// ParseTier validates a tier name from a flag or manifest. The empty
// string is TierHot: tiering predates nothing — unset always meant hot.
func ParseTier(s string) (Tier, error) {
	switch Tier(s) {
	case "", TierHot:
		return TierHot, nil
	case TierCold:
		return TierCold, nil
	}
	return "", fmt.Errorf("shard: unknown storage tier %q (want hot or cold)", s)
}

// applyTiering moves every ring shard that is not in tier t into it and
// returns how many moved. Idempotent, so re-applying a loaded configuration
// is free, and safe on a serving index: queries in flight finish against
// the residency they loaded. It holds compactMu across the pass — the
// serialization point of everything that replaces ring entries — so no
// shard is compacted away mid-move.
func (x *Index) applyTiering(t Tier) (int, error) {
	x.compactMu.Lock()
	defer x.compactMu.Unlock()
	x.mu.RLock()
	shards := x.shards
	x.mu.RUnlock()

	moved := 0
	for _, s := range shards {
		if s.isCold() == (t == TierCold) {
			continue
		}
		if t == TierCold {
			if err := s.demote(x.signer); err != nil {
				return moved, fmt.Errorf("demoting shard: %w", err)
			}
			if m := x.metrics; m != nil {
				m.tierDemotions.Inc()
			}
		} else {
			if err := s.promote(x.signer); err != nil {
				return moved, fmt.Errorf("promoting cold shard: %w", err)
			}
			if m := x.metrics; m != nil {
				m.tierPromotions.Inc()
			}
		}
		moved++
	}
	if moved > 0 {
		// A tier move changes where bytes live, not what queries answer, so
		// the generation bumps and the version (the result cache's key)
		// deliberately does not.
		x.mu.Lock()
		x.generation++
		x.mu.Unlock()
	}
	return moved, nil
}
