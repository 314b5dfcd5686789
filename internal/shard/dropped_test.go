package shard

import (
	"errors"
	"testing"

	"repro/internal/intset"
	"repro/internal/snapshot"
)

// TestDroppedBitmapRoundTrip: a churn-heavy lifetime — seals and
// compactions reclaiming many deleted ids — persists its dropped set as
// a dense bitmap and restores it exactly: the reclaimed count survives,
// re-deleting a reclaimed id stays a no-op, and answers are unchanged.
func TestDroppedBitmapRoundTrip(t *testing.T) {
	x, probes, deleted := churn(t, exactOptions(2, 40, 151))
	x.Compact() // reclaim the sealed tombstones too
	st := x.Stats()
	if st.Reclaimed == 0 {
		t.Fatalf("churn produced no reclaimed ids: %+v", st)
	}
	want := x.QueryBatchErr(probes)

	dir := t.TempDir()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	m, err := snapshot.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.DroppedBitmap) == 0 {
		t.Fatal("manifest carries no dropped bitmap")
	}
	// The bitmap is bounded by the id space, not the churn volume.
	if max := 8 * len(m.DroppedBitmap); max > 8*((m.Total+7)/8) {
		t.Fatalf("bitmap spans %d bits for %d ids", max, m.Total)
	}
	if got := intset.BitmapFromBytes(m.DroppedBitmap).Count(); got != st.Reclaimed {
		t.Fatalf("bitmap holds %d ids, stats say %d reclaimed", got, st.Reclaimed)
	}

	y, err := Load(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := y.Stats().Reclaimed; got != st.Reclaimed {
		t.Fatalf("reclaimed count %d after load, want %d", got, st.Reclaimed)
	}
	live := y.Len()
	for _, id := range deleted {
		if y.Delete(id) {
			t.Fatalf("re-delete of reclaimed/tombstoned id %d reported live", id)
		}
	}
	if y.Len() != live {
		t.Fatalf("re-deletes moved the live count: %d -> %d", live, y.Len())
	}
	got := y.QueryBatchErr(probes)
	for i := range probes {
		if !equalMatches(t, got[i], want[i]) {
			t.Fatalf("probe %d diverges after bitmap round trip", i)
		}
	}
}

// TestDroppedBitmapValidation: manifest-level guards on the bitmap —
// out-of-range bits are corruption, and so is breaking the
// cross-invariants (dropped ids absent from shards, side and tombstones).
func TestDroppedBitmapValidation(t *testing.T) {
	x, _, _ := churn(t, exactOptions(2, 40, 163))
	x.Compact()
	dir := t.TempDir()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	m0, err := snapshot.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, mutate func(m *snapshot.Manifest)) {
		t.Helper()
		m := *m0
		mutate(&m)
		if err := snapshot.WriteManifest(dir, &m); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir, 1); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	corrupt("bitmap bit beyond the id space", func(m *snapshot.Manifest) {
		bm := intset.BitmapFromBytes(m.DroppedBitmap)
		bm.Set(m.Total)
		m.DroppedBitmap = bm.Bytes()
	})
	corrupt("bitmap claims a live shard id", func(m *snapshot.Manifest) {
		// Id 0 was built into a primary shard and never deleted.
		bm := intset.BitmapFromBytes(m.DroppedBitmap)
		bm.Set(0)
		m.DroppedBitmap = bm.Bytes()
	})
	// Pristine manifest still loads.
	if err := snapshot.WriteManifest(dir, m0); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, 1); err != nil {
		t.Errorf("pristine manifest failed to load: %v", err)
	}
}

// TestLoadRejectsMaskedDeletedSetCorruption: the two corruptions of the
// deleted set's halves that only one load check can see. A tombstone that
// is also dropped but held nowhere adds nothing to the deleted set; a held
// id moved into the dropped half while a dropped id moves to the
// tombstones keeps the count of held deleted ids equal to the tombstones.
func TestLoadRejectsMaskedDeletedSetCorruption(t *testing.T) {
	x, _, _ := churn(t, exactOptions(2, 40, 163))
	x.Compact()
	dir := t.TempDir()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	m0, err := snapshot.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	dropped := m0.DroppedIDs().Ints()
	if len(dropped) == 0 || len(m0.Tombstones) != 0 {
		t.Fatalf("want dropped ids and no tombstones, manifest has %d and %v", len(dropped), m0.Tombstones)
	}
	for name, mutate := range map[string]func(m *snapshot.Manifest){
		"a dropped tombstone held nowhere": func(m *snapshot.Manifest) {
			m.Tombstones = []int{dropped[0]}
		},
		"a held dropped id beside a ghost tombstone": func(m *snapshot.Manifest) {
			var bm intset.Bitmap
			bm.Set(0) // held by a primary shard, never deleted
			for _, id := range dropped[1:] {
				bm.Set(id)
			}
			m.Tombstones, m.DroppedBitmap = []int{dropped[0]}, bm.Bytes()
		},
	} {
		m := *m0
		mutate(&m)
		if err := snapshot.WriteManifest(dir, &m); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir, 1); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}
