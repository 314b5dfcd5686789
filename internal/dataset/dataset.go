// Package dataset defines the collection-of-sets data model shared by every
// join algorithm in this repository, together with IO in the one-set-per-line
// token format used by the benchmark framework of Mann et al. (VLDB 2016)
// and the dataset statistics reported in Table I of the CPSJoin paper.
//
// Parse and Load read the input once and parse it in one pass into a single
// token arena: the sets of a parsed Dataset share that arena, each a
// three-index slice of it (its capacity ends where the set does), so an
// append to one set reallocates that set instead of writing into the next.
// A set kept from a parsed Dataset keeps the whole arena reachable.
package dataset

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"

	"repro/internal/intset"
)

// Dataset is a collection of sets ("records") over a token universe.
// Each set is a strictly increasing []uint32.
type Dataset struct {
	Sets [][]uint32
	// Name is an optional label used in experiment output.
	Name string
}

// ErrBadToken is returned when parsing encounters a non-integer token.
var ErrBadToken = errors.New("dataset: malformed token")

// Parse reads a dataset in the Mann et al. format: one set per line of
// non-negative integer tokens below 2^32, separated by spaces, tabs,
// commas or carriage returns. Lines with no token are skipped. Sets are
// normalized (sorted, duplicate tokens removed). Parse reads r to its end
// and parses the bytes in one pass; there is no limit on the length of a
// line.
func Parse(r io.Reader) (*Dataset, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return parse(data)
}

// Load reads a dataset from a file, as Parse does.
func Load(path string) (*Dataset, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ds, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	ds.Name = path
	return ds, nil
}

// parse is Parse over the whole input. Every token lands in one arena;
// each line's tokens are normalized where they lie and the arena is cut
// back to the survivors, so a set is a contiguous run of it. The sets are
// sliced out once the arena has stopped growing.
func parse(data []byte) (*Dataset, error) {
	// A token and its separator take three to five bytes in typical
	// inputs; append grows the arena if a third of the input was too few.
	arena := make([]uint32, 0, len(data)/3+1)
	var ends []int // ends[k] is the arena offset just past set k
	line, start := 1, 0
	for i := 0; i < len(data); {
		switch b := data[i]; {
		case b == '\n':
			arena, ends = endSet(arena, ends, start)
			start = len(arena)
			line++
			i++
			continue
		case isSeparator(b):
			i++
			continue
		}
		j, v, ok := i, uint64(0), true
		for ; j < len(data) && data[j] != '\n' && !isSeparator(data[j]); j++ {
			d := data[j] - '0'
			if d > 9 {
				ok = false
				continue
			}
			if v = v*10 + uint64(d); v > math.MaxUint32 {
				ok, v = false, 0
			}
		}
		if !ok {
			return nil, fmt.Errorf("line %d: %w: %q", line, ErrBadToken, data[i:j])
		}
		arena = append(arena, uint32(v))
		i = j
	}
	arena, ends = endSet(arena, ends, start)
	ds := &Dataset{Sets: make([][]uint32, len(ends))}
	from := 0
	for k, end := range ends {
		// The third index caps each set at its own end, so an append to
		// one set copies it instead of overwriting the next.
		ds.Sets[k] = arena[from:end:end]
		from = end
	}
	return ds, nil
}

func isSeparator(b byte) bool { return b == ' ' || b == '\t' || b == '\r' || b == ',' }

// endSet closes the line whose tokens are arena[start:]: it normalizes
// them in place, cuts the arena back to the set and records the set's end.
// A line with no token yields no set.
func endSet(arena []uint32, ends []int, start int) ([]uint32, []int) {
	if len(arena) == start {
		return arena, ends
	}
	arena = arena[:start+len(intset.Normalize(arena[start:]))]
	return arena, append(ends, len(arena))
}

// Write serializes the dataset, one set per line of space-separated tokens.
func (d *Dataset) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	buf := make([]byte, 0, 16)
	for _, set := range d.Sets {
		for i, tok := range set {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			buf = strconv.AppendUint(buf[:0], uint64(tok), 10)
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Save writes the dataset to a file.
func (d *Dataset) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Clean applies the preprocessing from the paper's experiments: duplicate
// records are removed and records containing fewer than two tokens are
// dropped. The first copy of a set survives, and the survivors keep their
// input order. It returns the number of sets removed.
func (d *Dataset) Clean() int {
	before := len(d.Sets)
	// latest maps a hash to 1 + the last survivor with it; prev chains
	// each survivor to the one before it with the same hash (-1 ends a
	// chain), so a set is compared exactly with every survivor sharing
	// its hash.
	latest := make(map[uint64]int, len(d.Sets))
	prev := make([]int, 0, len(d.Sets))
	out := d.Sets[:0]
	for _, set := range d.Sets {
		if len(set) < 2 {
			continue
		}
		h := setHash(set)
		k := latest[h] - 1
		for k >= 0 && !slices.Equal(out[k], set) {
			k = prev[k]
		}
		if k >= 0 {
			continue
		}
		prev = append(prev, latest[h]-1)
		latest[h] = len(out) + 1
		out = append(out, set)
	}
	d.Sets = out
	return before - len(d.Sets)
}

// setHash is the hash Clean buckets sets by; a test replaces it to force
// every set into one bucket.
var setHash = hashSet

// hashSet hashes a set's length and tokens to 64 bits, one
// multiply-xorshift round per token.
func hashSet(set []uint32) uint64 {
	h := uint64(len(set))
	for _, t := range set {
		h = (h ^ uint64(t)) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h
}

// Stats summarizes a dataset in the terms of Table I of the paper.
type Stats struct {
	NumSets       int
	Universe      int     // number of distinct tokens
	AvgSetSize    float64 // average record length
	MaxSetSize    int
	SetsPerToken  float64 // average number of sets containing a token
	TotalTokens   int64   // sum of set sizes
	MedianSetSize int
}

// ComputeStats scans the dataset once and returns its summary statistics.
func (d *Dataset) ComputeStats() Stats {
	var s Stats
	s.NumSets = len(d.Sets)
	freq := make(map[uint32]int)
	sizes := make([]int, 0, len(d.Sets))
	for _, set := range d.Sets {
		s.TotalTokens += int64(len(set))
		if len(set) > s.MaxSetSize {
			s.MaxSetSize = len(set)
		}
		sizes = append(sizes, len(set))
		for _, tok := range set {
			freq[tok]++
		}
	}
	s.Universe = len(freq)
	if s.NumSets > 0 {
		s.AvgSetSize = float64(s.TotalTokens) / float64(s.NumSets)
		sort.Ints(sizes)
		s.MedianSetSize = sizes[len(sizes)/2]
	}
	if s.Universe > 0 {
		s.SetsPerToken = float64(s.TotalTokens) / float64(s.Universe)
	}
	return s
}

// TokenFrequencies returns a map from token to the number of sets that
// contain it.
func (d *Dataset) TokenFrequencies() map[uint32]int {
	freq := make(map[uint32]int)
	for _, set := range d.Sets {
		for _, tok := range set {
			freq[tok]++
		}
	}
	return freq
}

// RemapByFrequency relabels tokens so that token ids are assigned in order
// of increasing document frequency (ties broken by original id). After
// remapping, the natural ascending order of each set is exactly the
// rare-tokens-first order required by prefix-filtering joins. It is the one
// frequency order of all three exact joins in internal/allpairs: AllPairs
// and PPJoin remap a copy of their input, the R-S join a copy of R ∪ S.
// Returns the mapping old->new.
func (d *Dataset) RemapByFrequency() map[uint32]uint32 {
	freq := d.TokenFrequencies()
	tokens := make([]uint32, 0, len(freq))
	for tok := range freq {
		tokens = append(tokens, tok)
	}
	sort.Slice(tokens, func(i, j int) bool {
		fi, fj := freq[tokens[i]], freq[tokens[j]]
		if fi != fj {
			return fi < fj
		}
		return tokens[i] < tokens[j]
	})
	remap := make(map[uint32]uint32, len(tokens))
	for newID, tok := range tokens {
		remap[tok] = uint32(newID)
	}
	for i, set := range d.Sets {
		for j, tok := range set {
			set[j] = remap[tok]
		}
		sort.Slice(set, func(a, b int) bool { return set[a] < set[b] })
		d.Sets[i] = set
	}
	return remap
}

// SortBySize orders the sets by increasing size (ties by first differing
// token, then by length) — the processing order required by AllPairs-style
// algorithms. It returns a permutation p such that new index i holds the set
// previously at p[i], so callers can translate result pairs back if needed.
func (d *Dataset) SortBySize() []int {
	perm := make([]int, len(d.Sets))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		return len(d.Sets[perm[a]]) < len(d.Sets[perm[b]])
	})
	sorted := make([][]uint32, len(d.Sets))
	for i, p := range perm {
		sorted[i] = d.Sets[p]
	}
	d.Sets = sorted
	return perm
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{Name: d.Name, Sets: make([][]uint32, len(d.Sets))}
	for i, set := range d.Sets {
		out.Sets[i] = append([]uint32(nil), set...)
	}
	return out
}
