package intset

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestBitmapBasics(t *testing.T) {
	var b Bitmap
	if b.Get(0) || b.Count() != 0 || b.Max() != -1 || b.Ints() != nil || b.Bytes() != nil {
		t.Fatal("fresh bitmap not empty")
	}
	for _, id := range []int{0, 1, 63, 64, 65, 1000} {
		b.Set(id)
		if !b.Get(id) {
			t.Fatalf("Get(%d) = false after Set", id)
		}
	}
	b.Set(64) // idempotent
	if got := b.Count(); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	if got := b.Max(); got != 1000 {
		t.Fatalf("Max = %d, want 1000", got)
	}
	want := []int{0, 1, 63, 64, 65, 1000}
	got := b.Ints()
	if len(got) != len(want) {
		t.Fatalf("Ints = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ints = %v, want %v", got, want)
		}
	}
	if b.Get(-1) || b.Get(2000) {
		t.Fatal("out-of-range ids reported as members")
	}
	c := b.Clone()
	c.Set(2)
	c.Set(2000)
	if b.Get(2) || b.Get(2000) || !c.Get(1000) || c.Count() != 8 {
		t.Fatal("a Clone is not an independent copy")
	}
}

func TestBitmapNilReceiverReads(t *testing.T) {
	var b *Bitmap
	if b.Get(3) || b.Count() != 0 || b.Max() != -1 || b.Ints() != nil || b.Bytes() != nil {
		t.Fatal("nil bitmap reads not empty")
	}
	if c := b.Clone(); c == nil || c.Count() != 0 {
		t.Fatal("Clone of a nil bitmap is not an empty bitmap")
	}
}

func TestBitmapSetNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set(-1) did not panic")
		}
	}()
	new(Bitmap).Set(-1)
}

// TestBitmapBytesRoundTrip: Bytes/BitmapFromBytes are inverses and the
// encoding is canonical — independent of how far the word slice grew.
func TestBitmapBytesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		b := &Bitmap{}
		n := r.Intn(200)
		ids := make(map[int]bool, n)
		for i := 0; i < n; i++ {
			id := r.Intn(3000)
			b.Set(id)
			ids[id] = true
		}
		// Probe a high id then leave it unset in a sibling bitmap built
		// from the members: encodings must still agree (trailing zeros
		// trimmed).
		_ = b.Get(1 << 16)
		enc := b.Bytes()
		rt := BitmapFromBytes(enc)
		if rt.Count() != len(ids) {
			t.Fatalf("trial %d: round trip Count = %d, want %d", trial, rt.Count(), len(ids))
		}
		for id := range ids {
			if !rt.Get(id) {
				t.Fatalf("trial %d: round trip lost id %d", trial, id)
			}
		}
		sibling := &Bitmap{}
		for _, id := range b.Ints() {
			sibling.Set(id)
		}
		if !bytes.Equal(enc, sibling.Bytes()) {
			t.Fatalf("trial %d: encoding not canonical", trial)
		}
	}
}
