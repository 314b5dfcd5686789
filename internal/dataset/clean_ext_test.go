package dataset_test

import (
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// TestCleanMatchesStringKeys: on generated collections with real
// duplicates (PlantPairs appends a verbatim copy of each donor set, and
// every seventh set is copied to the end besides), the hashed Clean keeps
// exactly the sets, in the order, that the string-keyed one did.
func TestCleanMatchesStringKeys(t *testing.T) {
	for _, tc := range []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"uniform", datagen.Uniform(2000, 50, 20000, 61)},
		{"zipf", datagen.Zipf(3000, 8, 500, 1.1, 5)},
		{"ledger", &dataset.Dataset{Sets: datagen.LedgerShape(true, 5000, 3)}},
	} {
		datagen.PlantPairs(tc.ds, 1000, 0.51, 17)
		sets := tc.ds.Sets
		copies := 0
		for i := 0; i < len(sets); i += 7 {
			sets = append(sets, slices.Clone(sets[i]))
			copies++
		}
		want := dataset.CleanByString(sets)
		ds := &dataset.Dataset{Sets: slices.Clone(sets)}
		removed := ds.Clean()
		if removed != len(sets)-len(want) {
			t.Errorf("%s: removed %d sets, want %d", tc.name, removed, len(sets)-len(want))
		}
		if len(sets)-len(want) < copies {
			t.Errorf("%s: the reference removed %d sets, fewer than the %d copies", tc.name, len(sets)-len(want), copies)
		}
		if !slices.EqualFunc(ds.Sets, want, slices.Equal) {
			t.Fatalf("%s: hashed Clean kept a different collection than the string-keyed one", tc.name)
		}
	}
}
