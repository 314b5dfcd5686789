package verify

// BruteForceJoin computes the exact self-join by verifying all O(n²)
// pairs. It is the ground truth against which every other algorithm in
// this repository is tested, and the recall denominator in experiments.
// Verify rejects a pair of incompatible sizes before it merges.
func BruteForceJoin(sets [][]uint32, lambda float64) []Pair {
	var out []Pair
	v := NewVerifier(sets, lambda)
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			if v.Verify(uint32(i), uint32(j)) {
				out = append(out, Pair{A: uint32(i), B: uint32(j)})
			}
		}
	}
	return out
}
