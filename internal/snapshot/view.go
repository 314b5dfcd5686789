package snapshot

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// Fixed-width payloads are little-endian and start 8-byte aligned, so on a
// little-endian host an array section already is the slice a decoder would
// build from it. View and Bytes reinterpret in place when they can and
// convert element by element when not: the one byte-order loop per direction.
// Cast then regroups words into records, which involves no byte order at all.

var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// View returns the elements of a fixed-width little-endian payload; a
// trailing partial element is ignored, so callers check len(b) first. Where
// the host is little-endian and b is aligned the result aliases b — it is
// valid as long as b is (for a mapped file, as long as the mapping) and
// read-only if b is; otherwise it is a heap copy.
func View[T uint32 | uint64](b []byte) []T {
	p, size := unsafe.Pointer(unsafe.SliceData(b)), unsafe.Sizeof(T(0))
	if hostLittleEndian && uintptr(p)%size == 0 {
		return unsafe.Slice((*T)(p), len(b)/int(size))
	}
	return decodeWords[T](b)
}

func decodeWords[T uint32 | uint64](b []byte) []T {
	out := make([]T, len(b)/int(unsafe.Sizeof(T(0))))
	for i := range out {
		if unsafe.Sizeof(out[i]) == 4 {
			out[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
		} else {
			out[i] = T(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	return out
}

// Bytes returns v as a fixed-width little-endian payload: v's own memory on
// a little-endian host (not to be modified), a converted copy elsewhere.
func Bytes[T uint32 | uint64](v []T) []byte {
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*int(unsafe.Sizeof(T(0))))
	}
	return encodeWords(v)
}

func encodeWords[T uint32 | uint64](v []T) []byte {
	out := make([]byte, 0, len(v)*int(unsafe.Sizeof(T(0))))
	for _, x := range v {
		if unsafe.Sizeof(x) == 4 {
			out = binary.LittleEndian.AppendUint32(out, uint32(x))
		} else {
			out = binary.LittleEndian.AppendUint64(out, uint64(x))
		}
	}
	return out
}

// Cast regroups a slice of 4-byte words into records and back: From and To are
// uint32, int32 or structs of such fields only, so a record has no padding,
// needs no more than a word's alignment, and reads the same from native words
// on either byte order — View has already dealt with the file's. The result
// aliases v and lives as long as v does. A cpindex trie is walked through Cast
// over View over a mapped container: that is sound because a container is
// never modified in place (writers go through a temp file and a rename) and
// because Go's bounds checks stay on, so a file changed under a mapping anyway
// can panic a walk but never take it outside the arrays. It panics if the
// types do not fit: that is a bug in the caller, not a property of the data.
func Cast[To, From any](v []From) []To {
	var from From
	var to To
	bytes, size := uintptr(len(v))*unsafe.Sizeof(from), unsafe.Sizeof(to)
	if unsafe.Sizeof(from)%4 != 0 || size == 0 || size%4 != 0 || unsafe.Alignof(to) > unsafe.Alignof(from) || bytes%size != 0 {
		panic(fmt.Sprintf("snapshot: cannot cast %d %T to %T", len(v), from, to))
	}
	return unsafe.Slice((*To)(unsafe.Pointer(unsafe.SliceData(v))), bytes/size)
}
