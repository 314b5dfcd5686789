package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Mapped is a read-only view over a complete container held in memory —
// an mmap'd file, or a file read in one piece — and the only container
// reader there is. OpenMapped walks only the fixed-size headers
// (container header plus each 20-byte section header), so a mapped file's
// payload pages are never faulted in until a caller asks for a section.
// That is the property the cold shard tier is built on: opening a mapped
// snapshot costs a few page reads regardless of file size.
//
// Checksums are therefore deferred to Section, which verifies its payload's
// CRC on every call: callers read a section once and keep what they made of
// it.
type Mapped struct {
	data     []byte
	sections []MappedSection
}

// MappedSection locates one section's payload inside the container bytes.
type MappedSection struct {
	Name string
	// Off and Len bound the payload within the container bytes.
	Off, Len int64
	// CRC is the payload's expected CRC-32C, read from the section header.
	CRC uint32
}

// maxMappedSections bounds the section-header walk so a corrupt file full
// of zero-length sections cannot grow the index without bound. Real
// containers carry a handful of sections.
const maxMappedSections = 1 << 10

// OpenMapped validates the container header of data and indexes its
// sections without reading any payload bytes. Structural problems wrap
// ErrCorrupt; any version but Version wraps ErrVersion.
func OpenMapped(data []byte, kind string) (*Mapped, error) {
	k, err := tag(kind)
	if err != nil {
		return nil, err
	}
	const chl = 8 + 4 + 8 // magic + version + kind
	if len(data) < chl {
		return nil, fmt.Errorf("%w: truncated header: %d bytes", ErrCorrupt, len(data))
	}
	if [8]byte(data[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:8])
	}
	if err := checkVersion("file", int64(binary.LittleEndian.Uint32(data[8:12]))); err != nil {
		return nil, err
	}
	if [8]byte(data[12:20]) != k {
		return nil, fmt.Errorf("%w: snapshot kind %q, want %q", ErrCorrupt, trimTag(data[12:20]), kind)
	}
	m := &Mapped{data: data}
	off := int64(chl)
	for off < int64(len(data)) {
		if len(m.sections) >= maxMappedSections {
			return nil, fmt.Errorf("%w: more than %d sections", ErrCorrupt, maxMappedSections)
		}
		pad := int64(sectionPad(off))
		if off+pad > int64(len(data)) {
			return nil, fmt.Errorf("%w: truncated alignment padding at byte %d", ErrCorrupt, off)
		}
		for _, b := range data[off : off+pad] {
			if b != 0 {
				return nil, fmt.Errorf("%w: nonzero alignment padding at byte %d", ErrCorrupt, off)
			}
		}
		off += pad
		if off+sectionHdrLen > int64(len(data)) {
			return nil, fmt.Errorf("%w: truncated section header at byte %d", ErrCorrupt, off)
		}
		hdr := data[off : off+sectionHdrLen]
		name := trimTag(hdr[:8])
		if name == "" {
			return nil, fmt.Errorf("%w: empty section name at byte %d", ErrCorrupt, off)
		}
		length := binary.LittleEndian.Uint64(hdr[8:16])
		if length > uint64(len(data))-uint64(off+sectionHdrLen) {
			return nil, fmt.Errorf("%w: section %q: length %d exceeds remaining %d bytes",
				ErrCorrupt, name, length, uint64(len(data))-uint64(off+sectionHdrLen))
		}
		m.sections = append(m.sections, MappedSection{
			Name: name,
			Off:  off + sectionHdrLen,
			Len:  int64(length),
			CRC:  binary.LittleEndian.Uint32(hdr[16:20]),
		})
		off += sectionHdrLen + int64(length)
	}
	return m, nil
}

// Bytes returns the full underlying container bytes.
func (m *Mapped) Bytes() []byte { return m.data }

// Sections returns the section index in file order.
func (m *Mapped) Sections() []MappedSection { return m.sections }

// Lookup finds a section by name (nil when absent). Names are unique in
// every container this package writes; Lookup returns the first match.
func (m *Mapped) Lookup(name string) *MappedSection {
	for i := range m.sections {
		if m.sections[i].Name == name {
			return &m.sections[i]
		}
	}
	return nil
}

// Section returns a section's payload after verifying its checksum — for a
// mapped file the read that faults the payload's pages in. The returned
// slice aliases the container bytes; callers must not modify it.
func (m *Mapped) Section(name string) ([]byte, error) {
	s := m.Lookup(name)
	if s == nil {
		return nil, fmt.Errorf("%w: missing section %q", ErrCorrupt, name)
	}
	payload := m.data[s.Off : s.Off+s.Len]
	if got := crc32.Checksum(payload, castagnoli); got != s.CRC {
		return nil, fmt.Errorf("%w: section %q: checksum mismatch (file %08x, data %08x)", ErrCorrupt, name, s.CRC, got)
	}
	return payload, nil
}
