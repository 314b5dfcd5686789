package dataset

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/snapshot"
)

func TestParseBasic(t *testing.T) {
	in := "1 2 3\n4 5\n\n7 7 6\n"
	ds, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Sets) != 3 {
		t.Fatalf("got %d sets, want 3", len(ds.Sets))
	}
	want := [][]uint32{{1, 2, 3}, {4, 5}, {6, 7}}
	for i := range want {
		if len(ds.Sets[i]) != len(want[i]) {
			t.Fatalf("set %d = %v, want %v", i, ds.Sets[i], want[i])
		}
		for j := range want[i] {
			if ds.Sets[i][j] != want[i][j] {
				t.Fatalf("set %d = %v, want %v", i, ds.Sets[i], want[i])
			}
		}
	}
}

func TestParseSeparators(t *testing.T) {
	ds, err := Parse(strings.NewReader("1,2,3\n4\t5\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Sets) != 2 || len(ds.Sets[0]) != 3 || len(ds.Sets[1]) != 2 {
		t.Fatalf("unexpected parse: %v", ds.Sets)
	}
}

func TestParseBadToken(t *testing.T) {
	_, err := Parse(strings.NewReader("1 2\n3 x 4\n"))
	if err == nil {
		t.Fatal("expected error for malformed token")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error should name the line: %v", err)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := &Dataset{}
	for i := 0; i < 100; i++ {
		n := 2 + rng.Intn(20)
		set := make([]uint32, 0, n)
		for j := 0; j < n; j++ {
			set = append(set, uint32(rng.Intn(1000)))
		}
		ds.Sets = append(ds.Sets, set)
	}
	for i := range ds.Sets {
		ds.Sets[i] = normalizeCopy(ds.Sets[i])
	}
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Sets) != len(ds.Sets) {
		t.Fatalf("round trip set count %d, want %d", len(back.Sets), len(ds.Sets))
	}
	for i := range ds.Sets {
		if len(back.Sets[i]) != len(ds.Sets[i]) {
			t.Fatalf("set %d mismatch", i)
		}
		for j := range ds.Sets[i] {
			if back.Sets[i][j] != ds.Sets[i][j] {
				t.Fatalf("set %d token %d mismatch", i, j)
			}
		}
	}
}

func normalizeCopy(s []uint32) []uint32 {
	m := make(map[uint32]bool)
	for _, v := range s {
		m[v] = true
	}
	out := make([]uint32, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

func TestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ds.txt")
	ds := &Dataset{Sets: [][]uint32{{1, 2}, {3, 4, 5}}}
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Sets) != 2 {
		t.Fatalf("got %d sets", len(back.Sets))
	}
}

func TestClean(t *testing.T) {
	ds := &Dataset{Sets: [][]uint32{
		{1, 2, 3},
		{7},       // too small: dropped
		{1, 2, 3}, // duplicate: dropped
		{4, 5},
	}}
	removed := ds.Clean()
	if removed != 2 {
		t.Fatalf("removed %d, want 2", removed)
	}
	if len(ds.Sets) != 2 {
		t.Fatalf("%d sets remain, want 2", len(ds.Sets))
	}
}

func TestComputeStats(t *testing.T) {
	ds := &Dataset{Sets: [][]uint32{
		{1, 2, 3, 4}, // size 4
		{1, 2},       // size 2
		{5, 6, 7},    // size 3
	}}
	s := ds.ComputeStats()
	if s.NumSets != 3 {
		t.Errorf("NumSets = %d", s.NumSets)
	}
	if s.Universe != 7 {
		t.Errorf("Universe = %d, want 7", s.Universe)
	}
	if s.AvgSetSize != 3 {
		t.Errorf("AvgSetSize = %v, want 3", s.AvgSetSize)
	}
	if s.MaxSetSize != 4 {
		t.Errorf("MaxSetSize = %d, want 4", s.MaxSetSize)
	}
	if want := 9.0 / 7.0; s.SetsPerToken != want {
		t.Errorf("SetsPerToken = %v, want %v", s.SetsPerToken, want)
	}
	if s.MedianSetSize != 3 {
		t.Errorf("MedianSetSize = %d, want 3", s.MedianSetSize)
	}
}

func TestRemapByFrequency(t *testing.T) {
	ds := &Dataset{Sets: [][]uint32{
		{10, 20, 30},
		{20, 30},
		{30},
	}}
	// Frequencies: 10->1, 20->2, 30->3. After remap ascending frequency:
	// 10->0, 20->1, 30->2.
	remap := ds.RemapByFrequency()
	if remap[10] != 0 || remap[20] != 1 || remap[30] != 2 {
		t.Fatalf("remap = %v", remap)
	}
	if err := snapshot.ValidateSets(ds.Sets); err != nil {
		t.Fatal(err)
	}
	// Rare-first order within each set means ascending new ids.
	if ds.Sets[0][0] != 0 || ds.Sets[0][1] != 1 || ds.Sets[0][2] != 2 {
		t.Fatalf("set 0 after remap: %v", ds.Sets[0])
	}
}

func TestRemapPreservesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds := &Dataset{}
	for i := 0; i < 200; i++ {
		n := 2 + rng.Intn(15)
		set := make([]uint32, 0, n)
		for j := 0; j < n; j++ {
			set = append(set, uint32(rng.Intn(500)))
		}
		ds.Sets = append(ds.Sets, normalizeCopy(set))
	}
	orig := ds.Clone()
	ds.RemapByFrequency()
	if err := snapshot.ValidateSets(ds.Sets); err != nil {
		t.Fatal(err)
	}
	// Sizes are preserved (bijection on tokens).
	for i := range ds.Sets {
		if len(ds.Sets[i]) != len(orig.Sets[i]) {
			t.Fatalf("set %d changed size after remap", i)
		}
	}
	// Intersection sizes are preserved for a sample of pairs.
	for k := 0; k < 200; k++ {
		i, j := rng.Intn(len(ds.Sets)), rng.Intn(len(ds.Sets))
		if got, want := intersect(ds.Sets[i], ds.Sets[j]), intersect(orig.Sets[i], orig.Sets[j]); got != want {
			t.Fatalf("pair (%d,%d) intersection %d, want %d", i, j, got, want)
		}
	}
}

func intersect(a, b []uint32) int {
	m := make(map[uint32]bool)
	for _, v := range a {
		m[v] = true
	}
	n := 0
	for _, v := range b {
		if m[v] {
			n++
		}
	}
	return n
}

func TestSortBySize(t *testing.T) {
	ds := &Dataset{Sets: [][]uint32{
		{1, 2, 3, 4},
		{1, 2},
		{5, 6, 7},
	}}
	perm := ds.SortBySize()
	if len(ds.Sets[0]) != 2 || len(ds.Sets[1]) != 3 || len(ds.Sets[2]) != 4 {
		t.Fatalf("not sorted by size: %v", ds.Sets)
	}
	if perm[0] != 1 || perm[1] != 2 || perm[2] != 0 {
		t.Fatalf("perm = %v", perm)
	}
}

func TestCloneIndependence(t *testing.T) {
	ds := &Dataset{Sets: [][]uint32{{1, 2, 3}}}
	cp := ds.Clone()
	cp.Sets[0][0] = 99
	if ds.Sets[0][0] != 1 {
		t.Fatal("Clone shares backing arrays")
	}
}
