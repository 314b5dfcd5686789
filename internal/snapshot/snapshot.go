// Package snapshot is the persistence layer shared by the built index
// structures: a versioned, checksummed binary container plus the JSON
// manifest schema of a sharded-index directory.
//
// The Chosen Path structures are static once built — a randomized trie per
// repetition over an immutable collection — which makes them ideal
// snapshot material: serialize once, load many times, and a process
// restart costs I/O instead of a rebuild. The container format is
// deliberately dumb and self-checking:
//
//	magic    [8]byte  "CPSNAP\x00\x00"
//	version  uint32   format version (little-endian, like all integers)
//	kind     [8]byte  zero-padded application tag ("cpindex", "cpshard", ...)
//	sections ...      each: zero padding, name [8]byte, length uint64,
//	                  crc uint32, payload
//
// Every section payload carries its own CRC-32C, so a flipped byte is
// pinned to the section it corrupted, and a reader that only needs the
// manifest-level metadata never pays to checksum the bulk data it skips.
//
// Two paddings, both zero bytes that the reader checks, make the
// fixed-width arrays usable where they lie (View). Before each section
// header, 0-7 bytes so that the payload starts 8-byte aligned; OpenMapped
// checks them. Inside a sets payload (EncodeSets, shared by cpindex, the
// shard containers and prep),
//
//	sizes    one uvarint per set
//	padding  0-3 bytes, up to the next multiple of four from the payload start
//	tokens   every set's tokens back to back, uint32
//
// so the token region is a []uint32 of the mapping; ReadSets checks that
// padding and everything else about the payload. Array sections (the trie,
// prep's matrices) are fixed-width from their first byte, and the contain
// section of a shard container has a 16-byte fixed header for the same
// reason.
//
// Load paths must return descriptive errors — wrapping ErrCorrupt or
// ErrVersion — for truncated files, checksum mismatches and unsupported
// versions; they must never panic or silently yield a wrong structure.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/intset"
)

// Version is the container and manifest format version this build writes
// and the only one it reads (MinVersion == Version): a snapshot is a cache
// of a rebuildable structure, not an archival format, so files of any other
// version are rejected with ErrVersion and rebuilt from the input rather
// than migrated. Version 5 aligns the token region of a sets payload, which
// version 4 left where its varint prefix put it.
const (
	Version    = 5
	MinVersion = 5
)

// checkVersion is the one version gate of the container and the manifest.
func checkVersion(what string, v int64) error {
	if v != Version {
		return fmt.Errorf("%w: %s has version %d, this build reads version %d only: rebuild the snapshot from its input",
			ErrVersion, what, v, Version)
	}
	return nil
}

var magic = [8]byte{'C', 'P', 'S', 'N', 'A', 'P', 0, 0}

var (
	// ErrCorrupt is wrapped by every validation failure: bad magic, bad
	// kind, checksum mismatch, truncation, implausible field.
	ErrCorrupt = errors.New("snapshot: corrupt")
	// ErrVersion is wrapped when the container's format version is not the
	// one this build reads.
	ErrVersion = errors.New("snapshot: unsupported format version")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// tag converts a short name to the fixed 8-byte on-disk form.
func tag(name string) ([8]byte, error) {
	var t [8]byte
	if name == "" || len(name) > len(t) {
		return t, fmt.Errorf("snapshot: tag %q must be 1..8 bytes", name)
	}
	copy(t[:], name)
	return t, nil
}

// Writer serializes one container: header first, then sections in call
// order.
type Writer struct {
	bw *bufio.Writer
	n  int64
}

// NewWriter writes the container header (magic, Version, kind) and
// returns the section writer.
func NewWriter(w io.Writer, kind string) (*Writer, error) {
	k, err := tag(kind)
	if err != nil {
		return nil, err
	}
	sw := &Writer{bw: bufio.NewWriterSize(w, 1<<20)}
	if _, err := sw.bw.Write(magic[:]); err != nil {
		return nil, err
	}
	var ver [4]byte
	binary.LittleEndian.PutUint32(ver[:], Version)
	if _, err := sw.bw.Write(ver[:]); err != nil {
		return nil, err
	}
	if _, err := sw.bw.Write(k[:]); err != nil {
		return nil, err
	}
	sw.n = int64(len(magic) + len(ver) + len(k))
	return sw, nil
}

// sectionPad returns the number of zero bytes to insert before a section
// header starting at offset off so the payload (which begins sectionHdrLen
// bytes after the header starts) is 8-byte aligned.
func sectionPad(off int64) int {
	return int((8 - (off+sectionHdrLen)%8) % 8)
}

// sectionHdrLen is the fixed section header size: name + length + crc.
const sectionHdrLen = 8 + 8 + 4

// zeroPad is the scratch source for alignment padding (max 7 bytes).
var zeroPad [8]byte

// Section appends one named, CRC-protected section, preceded by zero
// padding that 8-aligns the payload.
func (w *Writer) Section(name string, payload []byte) error {
	t, err := tag(name)
	if err != nil {
		return err
	}
	if pad := sectionPad(w.n); pad > 0 {
		if _, err := w.bw.Write(zeroPad[:pad]); err != nil {
			return err
		}
		w.n += int64(pad)
	}
	var hdr [sectionHdrLen]byte
	copy(hdr[:8], t[:])
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.Checksum(payload, castagnoli))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	w.n += int64(len(hdr)) + int64(len(payload))
	return nil
}

// Count returns the number of bytes written so far (header included).
func (w *Writer) Count() int64 { return w.n }

// Flush drains the internal buffer to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }

func trimTag(b []byte) string {
	end := len(b)
	for end > 0 && b[end-1] == 0 {
		end--
	}
	return string(b[:end])
}

// Buf builds a section payload from primitive values. Integers are
// little-endian; Uvarint uses the standard Go varint encoding.
type Buf struct {
	B []byte
}

func (b *Buf) U32(v uint32)     { b.B = binary.LittleEndian.AppendUint32(b.B, v) }
func (b *Buf) U64(v uint64)     { b.B = binary.LittleEndian.AppendUint64(b.B, v) }
func (b *Buf) F64(v float64)    { b.U64(math.Float64bits(v)) }
func (b *Buf) Uvarint(v uint64) { b.B = binary.AppendUvarint(b.B, v) }

// Cursor decodes a section payload. The first malformed read latches an
// error and every later read returns zero values, so decoders can run
// straight through and check Err (or Done) once at the end.
type Cursor struct {
	section string
	b       []byte
	off     int
	err     error
}

// NewCursor returns a cursor over payload; section names the payload in
// error messages.
func NewCursor(section string, payload []byte) *Cursor {
	return &Cursor{section: section, b: payload}
}

func (c *Cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: section %q: %s", ErrCorrupt, c.section, fmt.Sprintf(format, args...))
	}
}

func (c *Cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if c.off+n > len(c.b) {
		c.fail("truncated at byte %d (need %d of %d)", c.off, n, len(c.b))
		return nil
	}
	p := c.b[c.off : c.off+n]
	c.off += n
	return p
}

func (c *Cursor) U32() uint32 {
	if p := c.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (c *Cursor) U64() uint64 {
	if p := c.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (c *Cursor) F64() float64 { return math.Float64frombits(c.U64()) }

func (c *Cursor) Uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	// A padded encoding (trailing zero group) decodes, but no writer emits
	// it: accepting it would let two different files load as one structure.
	if n <= 0 || n > 1 && c.b[c.off+n-1] == 0 {
		c.fail("bad varint at byte %d", c.off)
		return 0
	}
	c.off += n
	return v
}

// Count reads a uvarint element count and rejects values above max or
// beyond what the remaining payload could possibly hold — the guard that
// keeps a corrupted count from driving a giant allocation.
func (c *Cursor) Count(max int) int {
	v := c.Uvarint()
	if c.err != nil {
		return 0
	}
	if v > uint64(max) {
		c.fail("implausible count %d (max %d)", v, max)
		return 0
	}
	if v > uint64(len(c.b)-c.off) {
		c.fail("count %d exceeds remaining %d bytes", v, len(c.b)-c.off)
		return 0
	}
	return int(v)
}

// Remaining returns the number of unconsumed payload bytes — the natural
// bound for element counts whose elements take at least one byte each.
func (c *Cursor) Remaining() int { return len(c.b) - c.off }

// Fail latches a decoder-level validation error (with section context),
// unless an earlier error already latched.
func (c *Cursor) Fail(format string, args ...any) {
	c.fail(format, args...)
}

// Err returns the first decoding error, if any.
func (c *Cursor) Err() error { return c.err }

// Done returns Err, or an error if payload bytes remain unconsumed (a
// length drift that a checksum alone cannot catch).
func (c *Cursor) Done() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return fmt.Errorf("%w: section %q: %d trailing bytes", ErrCorrupt, c.section, len(c.b)-c.off)
	}
	return nil
}

// EncodeSets returns a collection as a sets-section payload: one size
// varint per set, zero bytes up to the next multiple of four, then every
// token as fixed uint32. A payload starts 8-aligned in its container, so the
// token region is a []uint32 where it lies; ReadSets is the inverse.
func EncodeSets(sets [][]uint32) []byte {
	var b Buf
	for _, set := range sets {
		b.Uvarint(uint64(len(set)))
	}
	b.B = append(b.B, zeroPad[:-len(b.B)&3]...)
	for _, set := range sets {
		b.B = append(b.B, Bytes(set)...)
	}
	return b.B
}

// maxSetSize bounds one set's plausible token count on decode.
const maxSetSize = 1 << 28

// ReadSets is the one reader of a sets payload: it returns the n sets
// EncodeSets wrote as headers over View of the token region, so on a
// little-endian host they alias payload (valid as long as it is, read-only
// if it is) and nothing is copied. Every guard lives here: the count and
// each size must fit the payload (a corrupt header can never drive a huge
// allocation), sizes are capped, the padding is zero, the token region
// holds exactly the tokens the sizes promise, and each set is strictly
// increasing (the normalization invariant every query and join assumes).
func ReadSets(payload []byte, n uint64) ([][]uint32, error) {
	c := NewCursor("sets", payload)
	if n > uint64(len(payload)) { // each size varint takes >= 1 byte
		c.Fail("set count %d exceeds its %d bytes", n, len(payload))
		return nil, c.Err()
	}
	sizes := make([]uint32, n)
	var total uint64 // n <= len(payload), sizes <= 2^28: no overflow
	for i := range sizes {
		size := c.Uvarint()
		if size > maxSetSize {
			c.Fail("implausible set size %d", size)
			break
		}
		sizes[i] = uint32(size)
		total += size
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	for _, b := range c.take(-c.off & 3) {
		if b != 0 {
			c.Fail("nonzero token padding")
		}
	}
	if rest := uint64(c.Remaining()); rest%4 != 0 || rest/4 != total {
		c.Fail("%d tokens for %d remaining bytes", total, rest)
	}
	if err := c.Err(); err != nil { // the first of the two, if both failed
		return nil, err
	}
	tokens := View[uint32](payload[c.off:])
	sets := make([][]uint32, n)
	for i, size := range sizes {
		sets[i] = tokens[:size:size]
		tokens = tokens[size:]
		if !intset.IsSet(sets[i]) {
			c.Fail("set %d not strictly increasing", i)
			return nil, c.Err()
		}
	}
	return sets, nil
}

// CloneSets copies sets onto one fresh token array: how sets read in place
// outlive the container they were read from.
func CloneSets(sets [][]uint32) [][]uint32 {
	total := 0
	for _, set := range sets {
		total += len(set)
	}
	tokens := make([]uint32, 0, total)
	out := make([][]uint32, len(sets))
	for i, set := range sets {
		tokens = append(tokens, set...)
		out[i] = tokens[len(tokens)-len(set) : len(tokens) : len(tokens)]
	}
	return out
}

// ValidateSets checks the invariants of sets that arrive pre-decoded
// (e.g. from the JSON manifest): every set non-empty (an empty set
// cannot be MinHash-signed when a side shard seals) and strictly
// increasing (what Jaccard verification assumes). It reports the first
// offending set.
func ValidateSets(sets [][]uint32) error {
	for i, set := range sets {
		if len(set) == 0 {
			return fmt.Errorf("%w: set %d is empty", ErrCorrupt, i)
		}
		if !intset.IsSet(set) {
			return fmt.Errorf("%w: set %d not strictly increasing", ErrCorrupt, i)
		}
	}
	return nil
}

// WriteFile writes one container to path atomically (writeAtomic): the
// encoder runs against a temp file in the same directory, so a crashed or
// failed save never leaves a half-written snapshot behind.
func WriteFile(path, kind string, encode func(*Writer) error) error {
	return writeAtomic(path, func(f *os.File) error {
		w, err := NewWriter(f, kind)
		if err != nil {
			return err
		}
		if err := encode(w); err != nil {
			return err
		}
		return w.Flush()
	})
}

// WriteRawFile writes pre-serialized bytes to path atomically, like
// WriteFile. The manifest writer and raw-byte shard saves use it.
func WriteRawFile(path string, data []byte) error {
	return writeAtomic(path, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// writeAtomic is the crash-safety dance of both writers: write fills a temp
// file in path's directory, which is synced, closed and renamed over path
// only on success. On any error the temp file is closed and removed.
func writeAtomic(path string, write func(*os.File) error) (err error) {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
