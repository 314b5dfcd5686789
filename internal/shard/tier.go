package shard

import "fmt"

// Storage tiering: every local ring shard is hot — its trie's arrays and the
// token array behind its sets on the heap — or cold: those arrays are the
// trees section and the token region of the shard's memory-mapped
// container, validated once at first touch. That is a residency state of one
// backend (localShard) over one trie and one [][]uint32, so the two answer
// every query byte-identically (the model harness runs its whole grid
// across tiers) at the same cost per query; they trade resident heap for
// page cache and a first touch. Tier selection happens at load time (LoadOptions.Tiering, the
// manifest's saved runtime state, or the auto size policy) and at runtime:
// Configure moves the whole ring, PromoteAll/DemoteAll likewise, and under
// TierAuto the placement controller retiers on query frequency — shards
// whose hit gauge stays at zero across consecutive passes demote, cold
// shards that keep absorbing hits promote. Moves happen in place under
// compactMu (serialized with ring replacement) with a generation bump and
// no version bump: moving where a shard's bytes live never changes what it
// answers.

// Tier names a shard storage tier policy.
type Tier string

const (
	// TierHot keeps every shard's trie and sets on the heap — the default.
	TierHot Tier = "hot"
	// TierCold leaves every shard's trie and sets in its memory-mapped
	// container.
	TierCold Tier = "cold"
	// TierAuto picks per shard: shards at or above the auto threshold load
	// cold, and the placement controller retiers on query frequency.
	TierAuto Tier = "auto"
)

// ParseTier validates a tier name from a flag or manifest. The empty
// string is TierHot: tiering predates nothing — unset always meant hot.
func ParseTier(s string) (Tier, error) {
	switch Tier(s) {
	case "", TierHot:
		return TierHot, nil
	case TierCold:
		return TierCold, nil
	case TierAuto:
		return TierAuto, nil
	}
	return "", fmt.Errorf("shard: unknown storage tier %q (want hot, cold or auto)", s)
}

// DefaultAutoColdBytes is TierAuto's load-time size threshold: shard
// files at least this large open cold, smaller ones load hot. Small
// shards dominate query fan-out cost but not memory, so they stay hot.
const DefaultAutoColdBytes = 1 << 20

// Auto-retier policy: a cold shard that served at least tierPromoteHits
// queries since the previous pass promotes; a hot shard whose hit gauge
// read zero for tierDemoteIdlePasses consecutive passes demotes.
const (
	tierPromoteHits      = 2
	tierDemoteIdlePasses = 2
)

// applyTiering moves the whole ring to the named tier: hot promotes every
// cold shard, cold demotes every hot one, auto leaves placement to the
// retier passes. Idempotent — shards already in the target tier are
// untouched — so re-applying a loaded configuration is free.
func (x *Index) applyTiering(t Tier) error {
	switch t {
	case TierCold:
		_, err := x.DemoteAll()
		return err
	case TierAuto:
		return nil
	default:
		_, err := x.PromoteAll()
		return err
	}
}

// setTiering records the configured tier (under mu, like the other
// runtime fields).
func (x *Index) setTiering(t Tier) {
	x.mu.Lock()
	x.runtime.Tiering = t
	x.mu.Unlock()
}

// PromoteAll moves every cold ring shard to hot and returns how many
// moved. Safe on a serving index: queries in flight finish against the
// residency they loaded.
func (x *Index) PromoteAll() (int, error) {
	return x.retier(func(s *localShard, _ uint64) bool { return s.isCold() })
}

// DemoteAll moves every hot ring shard to cold and returns how many moved.
// Like PromoteAll, serving-safe.
func (x *Index) DemoteAll() (int, error) {
	return x.retier(func(s *localShard, _ uint64) bool { return !s.isCold() })
}

// Retier runs one auto-tier pass and reports how many shards moved in
// each direction. A no-op unless the configured tiering is TierAuto. The
// placement controller calls it on its reconciliation cadence; tests (and
// operators) can drive it directly.
func (x *Index) Retier() (promoted, demoted int, err error) {
	x.mu.RLock()
	tier := x.runtime.Tiering
	x.mu.RUnlock()
	if tier != TierAuto {
		return 0, 0, nil
	}
	_, err = x.retier(func(s *localShard, hits uint64) bool {
		if s.isCold() {
			if hits >= tierPromoteHits {
				promoted++
				return true
			}
			return false
		}
		if hits > 0 {
			s.idle = 0
			return false
		}
		if s.idle++; s.idle < tierDemoteIdlePasses {
			return false
		}
		demoted++
		return true
	})
	return promoted, demoted, err
}

// retier offers every local ring shard to move, together with the hits it
// served since the previous pass, and flips the tier of those it picks. It
// holds compactMu across the pass — the serialization point of everything
// that replaces ring entries — so no shard is compacted away or shipped
// mid-move.
func (x *Index) retier(move func(s *localShard, hits uint64) bool) (int, error) {
	x.compactMu.Lock()
	defer x.compactMu.Unlock()
	x.mu.RLock()
	shards := x.shards
	x.mu.RUnlock()

	moved := 0
	for _, sh := range shards {
		s, ok := sh.(*localShard)
		if !ok || !move(s, s.hits.Swap(0)) {
			continue
		}
		s.idle = 0
		if s.isCold() {
			if err := s.promote(); err != nil {
				return moved, fmt.Errorf("promoting cold shard: %w", err)
			}
			if m := x.metrics; m != nil {
				m.tierPromotions.Inc()
			}
		} else {
			if err := s.demote(x.signers); err != nil {
				return moved, fmt.Errorf("demoting shard: %w", err)
			}
			if m := x.metrics; m != nil {
				m.tierDemotions.Inc()
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
