package verify

import (
	"sync"
	"testing"
)

// TestConcurrentResultSetBasics runs the set's contract at the narrowest
// striping, a usual one and the cap: the stripe count must not show.
func TestConcurrentResultSetBasics(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 1 << 20} {
		r := NewResultSet(workers)
		if n := len(r.shards); n < 8 || n > 1<<16 || n&(n-1) != 0 {
			t.Fatalf("workers=%d: %d stripes", workers, n)
		}
		if !r.Add(3, 1) {
			t.Error("first Add returned false")
		}
		if r.Add(1, 3) {
			t.Error("duplicate Add (swapped order) returned true")
		}
		if !r.Contains(1, 3) || !r.Contains(3, 1) {
			t.Error("Contains failed for added pair")
		}
		if r.Contains(1, 2) {
			t.Error("Contains true for absent pair")
		}
		if r.Len() != 1 {
			t.Errorf("Len = %d, want 1", r.Len())
		}
		pairs := r.Pairs()
		if len(pairs) != 1 || pairs[0] != (Pair{A: 1, B: 3}) {
			t.Errorf("Pairs = %v", pairs)
		}
	}
}

// TestConcurrentResultSetContention hammers one set from many goroutines
// with overlapping pair ranges, at the striping a one-worker join gets; run
// under -race this is the contention check the joins rely on.
func TestConcurrentResultSetContention(t *testing.T) {
	r := NewResultSet(1)
	const (
		goroutines = 16
		pairsEach  = 2000
		overlap    = 500 // every goroutine also inserts these shared pairs
	)
	var wg sync.WaitGroup
	newCount := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 0
			for i := 0; i < pairsEach; i++ {
				// Unique range per goroutine.
				a := uint32(g*pairsEach + i)
				if r.Add(a, a+1_000_000) {
					n++
				}
				// Shared range: contended dedup.
				s := uint32(i % overlap)
				if r.Add(s, s+2_000_000) {
					n++
				}
				r.Contains(s, s+2_000_000)
			}
			newCount[g] = n
		}(g)
	}
	wg.Wait()

	total := 0
	for _, n := range newCount {
		total += n
	}
	want := goroutines*pairsEach + overlap
	if total != want {
		t.Errorf("sum of new-pair Adds = %d, want %d (Add not linearizable)", total, want)
	}
	if r.Len() != want {
		t.Errorf("Len = %d, want %d", r.Len(), want)
	}
	if got := len(r.Pairs()); got != want {
		t.Errorf("len(Pairs) = %d, want %d", got, want)
	}
}
