package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/intset"
)

// FuzzParse holds Parse to parseReference, the line-by-line parser it
// replaced: on any input both return the same sets, or both fail with the
// same ErrBadToken error naming the same line and token. Anything Parse
// accepts must also round-trip through Write/Parse unchanged.
func FuzzParse(f *testing.F) {
	f.Add("1 2 3\n4 5\n")
	f.Add("")
	f.Add("0\n")
	f.Add("4294967295 0\n")
	f.Add("1,2,3\r\n")
	f.Add("   \n\t\n")
	f.Add("1 1 1 1\n")
	f.Add("x\n")
	f.Add("99999999999999999999\n")
	// Line ends and separators.
	f.Add("1 2\r\n3 4\r\n\r\n5\r\n")
	f.Add("7,8\t9\n\t,\n,,\n10 11")
	f.Add("\n\n1 2\n \r\n3\n\n")
	f.Add("3 1 2\r")
	// Tokens strconv.ParseUint rejects, and ones it accepts.
	f.Add("007 0009 00\n")
	f.Add("4294967295\n4294967296\n")
	f.Add("1 2\n42949672950\n")
	f.Add("1 +2\n")
	f.Add("1\n-2 3\n")
	f.Add("1\v2\n")
	f.Add("1 2\f\n")
	f.Add("1 2\n3 \xc3\xa9\n")
	f.Add("5 6\n\xff\n")
	f.Add("1_000\n")
	f.Add("0x10\n")
	f.Fuzz(func(t *testing.T, input string) {
		want, wantErr := parseReference(strings.NewReader(input))
		ds, err := Parse(strings.NewReader(input))
		if wantErr != nil {
			if !errors.Is(err, ErrBadToken) || err.Error() != wantErr.Error() {
				t.Fatalf("Parse error %v, want %v", err, wantErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("Parse failed where the reference did not: %v", err)
		}
		if !slices.EqualFunc(ds.Sets, want.Sets, slices.Equal) {
			t.Fatalf("Parse = %v, reference %v", ds.Sets, want.Sets)
		}
		for i, set := range ds.Sets {
			if !intset.IsSet(set) {
				t.Fatalf("set %d not normalized: %v", i, set)
			}
			if cap(set) != len(set) {
				t.Fatalf("set %d has capacity %d past its length %d", i, cap(set), len(set))
			}
		}
		var buf bytes.Buffer
		if err := ds.Write(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		back, err := Parse(&buf)
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		if !slices.EqualFunc(back.Sets, ds.Sets, slices.Equal) {
			t.Fatalf("round trip changed the sets: %v -> %v", ds.Sets, back.Sets)
		}
	})
}

// parseReference is the parser Parse replaced: a bufio.Scanner over lines
// (lines of up to 16 MB) and strconv.ParseUint per token.
func parseReference(r io.Reader) (*Dataset, error) {
	ds := &Dataset{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		set, err := parseLineReference(sc.Bytes())
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

func parseLineReference(line []byte) ([]uint32, error) {
	var set []uint32
	i := 0
	for i < len(line) {
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
