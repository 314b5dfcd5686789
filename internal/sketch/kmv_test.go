package sketch

import (
	"math"
	"testing"
)

func TestKMVExactBelowK(t *testing.T) {
	s := NewKMV(64, 7)
	for i := 0; i < 50; i++ {
		s.Add(uint32(i))
	}
	// Duplicates never move the estimate.
	for i := 0; i < 50; i++ {
		s.Add(uint32(i))
	}
	if got := s.Estimate(); got != 50 {
		t.Fatalf("Estimate = %v, want exact 50 below k", got)
	}
}

// TestKMVErrorBound checks the estimator against the textbook bound:
// over many independent sketches (different seeds), the mean relative
// error stays within a small multiple of 1/sqrt(k-2).
func TestKMVErrorBound(t *testing.T) {
	const (
		k      = 128
		n      = 20000
		trials = 30
	)
	var sumAbs, sumRel float64
	worst := 0.0
	for trial := 0; trial < trials; trial++ {
		s := NewKMV(k, uint64(1000+trial))
		for i := 0; i < n; i++ {
			s.Add(uint32(i * 7919)) // distinct tokens, arbitrary spread
		}
		rel := math.Abs(s.Estimate()-float64(n)) / float64(n)
		sumAbs += s.Estimate()
		sumRel += rel
		if rel > worst {
			worst = rel
		}
	}
	bound := 1 / math.Sqrt(k-2) // ≈ 0.089 for k=128
	if mean := sumRel / trials; mean > 2*bound {
		t.Fatalf("mean relative error %.4f exceeds 2/sqrt(k-2) = %.4f", mean, 2*bound)
	}
	if worst > 6*bound {
		t.Fatalf("worst relative error %.4f exceeds 6/sqrt(k-2) = %.4f", worst, 6*bound)
	}
	// The estimator is near-unbiased: the mean over trials lands close
	// to the truth.
	if meanEst := sumAbs / trials; math.Abs(meanEst-n)/n > bound {
		t.Fatalf("mean estimate %.1f deviates from %d beyond one standard error", meanEst, n)
	}
}

func TestKMVDeterministic(t *testing.T) {
	a, b := NewKMV(32, 42), NewKMV(32, 42)
	set := []uint32{9, 1, 4, 7, 1, 9, 300, 2}
	a.AddSet(set)
	for _, tok := range set {
		b.Add(tok)
	}
	if a.Estimate() != b.Estimate() {
		t.Fatalf("same inputs, same seed: estimates differ (%v vs %v)", a.Estimate(), b.Estimate())
	}
}

func TestKMVPanicsOnTinyK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewKMV(1, ...) must panic")
		}
	}()
	NewKMV(1, 0)
}
