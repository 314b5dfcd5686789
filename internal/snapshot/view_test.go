package snapshot

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"unsafe"
)

// alignedPayload returns n bytes of a recognisable pattern starting shift
// bytes past an 8-aligned address.
func alignedPayload(n, shift int) []byte {
	buf := make([]byte, n+16)
	base := int((8-uintptr(unsafe.Pointer(&buf[0]))%8)%8) + shift
	b := buf[base : base+n : base+n]
	for i := range b {
		b[i] = byte(i*37 + 11)
	}
	return b
}

// testView checks View against the copying path at every alignment: equal
// element for element, aliasing the payload exactly when the host is
// little-endian and the payload is aligned for the element. Run under -race
// this is also the checkptr test: no conversion of a misaligned pointer.
func testView[T uint32 | uint64](t *testing.T) {
	size := int(unsafe.Sizeof(T(0)))
	for shift := 0; shift < 8; shift++ {
		for _, n := range []int{0, size, 5 * size, 5*size + size - 1} {
			b := alignedPayload(n, shift)
			got, want := View[T](b), decodeWords[T](b)
			if len(got) != n/size || !slices.Equal(got, want) {
				t.Fatalf("shift %d, %d bytes: View = %x, copying path %x", shift, n, got, want)
			}
			if len(got) == 0 {
				continue
			}
			if size == 4 && uint32(got[0]) != binary.LittleEndian.Uint32(b) || size == 8 && uint64(got[0]) != binary.LittleEndian.Uint64(b) {
				t.Fatalf("shift %d: element 0 = %x is not the little-endian reading of % x", shift, got[0], b[:size])
			}
			aliases := unsafe.Pointer(&got[0]) == unsafe.Pointer(&b[0])
			if want := hostLittleEndian && shift%size == 0; aliases != want {
				t.Errorf("shift %d, %d-byte elements: aliases the payload = %v, want %v", shift, size, aliases, want)
			}
		}
	}
}

func TestView(t *testing.T) {
	t.Run("uint32", testView[uint32])
	t.Run("uint64", testView[uint64])
}

func testBytes[T uint32 | uint64](t *testing.T) {
	size := int(unsafe.Sizeof(T(0)))
	for _, n := range []int{0, 1, 7} {
		v := make([]T, n)
		for i := range v {
			v[i] = T(0x0102030405060708 * uint64(i+1))
		}
		got, want := Bytes(v), encodeWords(v)
		if len(got) != n*size || !bytes.Equal(got, want) {
			t.Fatalf("%d elements: Bytes = % x, copying path % x", n, got, want)
		}
		if back := View[T](got); !slices.Equal(back, v) {
			t.Fatalf("%d elements: View(Bytes(v)) = %x, want %x", n, back, v)
		}
		if n > 0 && (unsafe.Pointer(&got[0]) == unsafe.Pointer(&v[0])) != hostLittleEndian {
			t.Errorf("%d elements: Bytes aliases v on a big-endian host or copies on a little-endian one", n)
		}
	}
	if b := Bytes[T](nil); len(b) != 0 {
		t.Errorf("Bytes(nil) has %d bytes", len(b))
	}
}

func TestBytes(t *testing.T) {
	t.Run("uint32", testBytes[uint32])
	t.Run("uint64", testBytes[uint64])
}

// TestCast: records of 4-byte fields over words and back, in place; a length
// or a type that does not fit is the caller's bug and panics.
func TestCast(t *testing.T) {
	type rec struct {
		a uint32
		b int32
		c uint32
	}
	words := []uint32{1, 0xfffffffe, 3, 4, 5, 6}
	recs := Cast[rec](words)
	if want := []rec{{1, -2, 3}, {4, 5, 6}}; !slices.Equal(recs, want) {
		t.Fatalf("Cast = %v, want %v", recs, want)
	}
	if unsafe.Pointer(&recs[0]) != unsafe.Pointer(&words[0]) {
		t.Fatal("Cast copied")
	}
	if back := Cast[uint32](recs); !slices.Equal(back, words) || &back[0] != &words[0] {
		t.Fatalf("Cast back = %v, want the words it came from, in place", back)
	}
	if got := Cast[rec]([]uint32(nil)); len(got) != 0 {
		t.Fatalf("Cast(nil) has %d records", len(got))
	}
	for name, bad := range map[string]func(){
		"a word short of a record":  func() { Cast[rec](words[:5]) },
		"an 8-aligned record":       func() { Cast[struct{ a uint64 }](words[:2]) },
		"a record of no whole word": func() { Cast[[3]uint16](words) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Cast did not panic", name)
				}
			}()
			bad()
		}()
	}
}
