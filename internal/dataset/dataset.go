// Package dataset defines the collection-of-sets data model shared by every
// join algorithm in this repository, together with IO in the one-set-per-line
// token format used by the benchmark framework of Mann et al. (VLDB 2016)
// and the dataset statistics reported in Table I of the CPSJoin paper.
package dataset

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
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

// Parse reads a dataset in the Mann et al. format: one set per line,
// whitespace-separated non-negative integer tokens. Empty lines are skipped.
// Sets are normalized (sorted, duplicate tokens removed).
func Parse(r io.Reader) (*Dataset, error) {
	ds := &Dataset{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		set, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if set == nil {
			continue
		}
		ds.Sets = append(ds.Sets, intset.Normalize(set))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ds, nil
}

func parseLine(line []byte) ([]uint32, error) {
	var set []uint32
	i := 0
	for i < len(line) {
		// Skip whitespace.
		for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r' || line[i] == ',') {
			i++
		}
		if i >= len(line) {
			break
		}
		j := i
		for j < len(line) && line[j] != ' ' && line[j] != '\t' && line[j] != '\r' && line[j] != ',' {
			j++
		}
		v, err := strconv.ParseUint(string(line[i:j]), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%w: %q", ErrBadToken, line[i:j])
		}
		set = append(set, uint32(v))
		i = j
	}
	return set, nil
}

// Load reads a dataset from a file.
func Load(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ds, err := Parse(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	ds.Name = path
	return ds, nil
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
// dropped. It returns the number of sets removed.
func (d *Dataset) Clean() int {
	before := len(d.Sets)
	seen := make(map[string]bool, len(d.Sets))
	out := d.Sets[:0]
	key := make([]byte, 0, 256)
	for _, set := range d.Sets {
		if len(set) < 2 {
			continue
		}
		key = key[:0]
		for _, tok := range set {
			key = append(key, byte(tok), byte(tok>>8), byte(tok>>16), byte(tok>>24))
		}
		k := string(key)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, set)
	}
	d.Sets = out
	return before - len(d.Sets)
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
