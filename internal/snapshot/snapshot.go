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
//	sections ...      each: name [8]byte, length uint64, crc uint32, payload
//
// Every section payload carries its own CRC-32C, so a flipped byte is
// pinned to the section it corrupted, and a reader that only needs the
// manifest-level metadata never pays to checksum the bulk data it skips.
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
)

// Version is the container and manifest format version this build writes
// and the only one it reads (MinVersion == Version): a snapshot is a cache
// of a rebuildable structure, not an archival format, so files of any other
// version are rejected with ErrVersion and rebuilt from the input rather
// than migrated. Version 4 persists the cpindex tries as fixed-width
// arrays; every section payload starts 8-byte aligned behind zero padding.
const (
	Version    = 4
	MinVersion = 4
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

// EncodeSets appends a collection in the shared sets-section layout: one
// size varint per set, then every token as fixed uint32. DecodeSets is
// the validating inverse; prep and cpindex both store their collections
// this way so the decode guards live in exactly one place.
func EncodeSets(b *Buf, sets [][]uint32) {
	for _, set := range sets {
		b.Uvarint(uint64(len(set)))
	}
	for _, set := range sets {
		for _, tok := range set {
			b.U32(tok)
		}
	}
}

// maxSetSize bounds one set's plausible token count on decode.
const maxSetSize = 1 << 28

// DecodeSets reads n sets written by EncodeSets, enforcing every decode
// guard: the count and each size must fit the remaining payload (so a
// corrupt header can never drive a huge allocation), sizes are capped,
// the size sum is overflow-checked against the payload, and each set
// must be strictly increasing (the normalization invariant every query
// and join assumes). All sets share one backing token array.
func DecodeSets(c *Cursor, n uint64) [][]uint32 {
	if n > uint64(c.Remaining()) { // each size varint takes >= 1 byte
		c.Fail("set count %d exceeds remaining %d bytes", n, c.Remaining())
		return nil
	}
	sizes := make([]uint64, n)
	var total uint64
	for i := range sizes {
		sizes[i] = c.Uvarint()
		if sizes[i] > maxSetSize {
			c.Fail("implausible set size %d", sizes[i])
			return nil
		}
		total += sizes[i] // n <= remaining bytes, sizes <= 2^28: no overflow
	}
	if c.err != nil {
		return nil
	}
	if total*4 > uint64(c.Remaining()) { // every token takes 4 bytes
		c.Fail("%d tokens exceed remaining %d bytes", total, c.Remaining())
		return nil
	}
	sets := make([][]uint32, n)
	tokens := make([]uint32, total)
	for i, size := range sizes {
		set := tokens[:size:size]
		tokens = tokens[size:]
		for j := range set {
			set[j] = c.U32()
			if j > 0 && set[j] <= set[j-1] {
				c.Fail("set %d not strictly increasing", i)
				return nil
			}
		}
		sets[i] = set
	}
	return sets
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
		for j := 1; j < len(set); j++ {
			if set[j] <= set[j-1] {
				return fmt.Errorf("%w: set %d not strictly increasing", ErrCorrupt, i)
			}
		}
	}
	return nil
}

// WriteFile writes one container to path atomically: the encoder runs
// against a temp file in the same directory, which is synced and renamed
// over path only on success, so a crashed or failed save never leaves a
// half-written snapshot behind.
func WriteFile(path, kind string, encode func(*Writer) error) (err error) {
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
	w, err := NewWriter(f, kind)
	if err != nil {
		return err
	}
	if err = encode(w); err != nil {
		return err
	}
	if err = w.Flush(); err != nil {
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

// WriteRawFile writes pre-serialized bytes to path with the same
// atomicity discipline as WriteFile: temp file in the same directory,
// fsync, rename. Shared by the manifest writer and raw-byte shard saves
// so the crash-safety dance lives in one place.
func WriteRawFile(path string, data []byte) (err error) {
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
	if _, err = f.Write(data); err != nil {
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
