package intset

import "math/bits"

// Bitmap is a dense bit set over a bounded id space [0, n). The sharded
// serving layer keeps its one deleted set in it — every id ever deleted,
// whether a shard still holds the set or a seal or compaction dropped it —
// which grows with lifetime churn, but as a bitmap is bounded by ids ever
// assigned: total/8 bytes of RAM, O(total/64) to copy or count, one word
// test per membership check. The manifest stores the dropped half in the
// Bytes form.
//
// Read methods (Get, Count, Max, Ints, Bytes, Clone) are nil-receiver safe
// and treat a nil Bitmap as empty, so a set can stay nil until its first
// member.
type Bitmap struct {
	words []uint64
}

// Clone returns an independent copy, never nil: the copy in a
// copy-on-write update.
func (b *Bitmap) Clone() *Bitmap {
	if b == nil {
		return &Bitmap{}
	}
	return &Bitmap{words: append([]uint64(nil), b.words...)}
}

// Set marks id as a member, growing the bitmap as needed. Negative ids
// panic: the id space starts at zero by construction.
func (b *Bitmap) Set(id int) {
	if id < 0 {
		panic("intset: negative Bitmap id")
	}
	w := id >> 6
	for w >= len(b.words) {
		b.words = append(b.words, 0)
	}
	b.words[w] |= 1 << (uint(id) & 63)
}

// Get reports whether id is a member. Out-of-range (including negative)
// ids are simply not members.
func (b *Bitmap) Get(id int) bool {
	if b == nil || id < 0 {
		return false
	}
	w := id >> 6
	return w < len(b.words) && b.words[w]&(1<<(uint(id)&63)) != 0
}

// Count returns the number of members.
func (b *Bitmap) Count() int {
	if b == nil {
		return 0
	}
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Max returns the largest member, or -1 when the bitmap is empty.
func (b *Bitmap) Max() int {
	if b == nil {
		return -1
	}
	for w := len(b.words) - 1; w >= 0; w-- {
		if b.words[w] != 0 {
			return w<<6 + 63 - bits.LeadingZeros64(b.words[w])
		}
	}
	return -1
}

// Ints returns the members in ascending order.
func (b *Bitmap) Ints() []int {
	if b == nil {
		return nil
	}
	var out []int
	for wi, w := range b.words {
		for w != 0 {
			out = append(out, wi<<6+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// Bytes returns the canonical serialized form: bit i of the byte stream
// (byte i/8, bit i%8) is membership of id i, with trailing zero bytes
// trimmed so the encoding of a set is unique regardless of growth
// history. An empty (or nil) bitmap encodes as nil.
func (b *Bitmap) Bytes() []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, 0, len(b.words)*8)
	for _, w := range b.words {
		for s := 0; s < 64; s += 8 {
			out = append(out, byte(w>>uint(s)))
		}
	}
	for len(out) > 0 && out[len(out)-1] == 0 {
		out = out[:len(out)-1]
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// BitmapFromBytes is the inverse of Bytes. Every byte string is a valid
// bitmap; nil yields an empty bitmap.
func BitmapFromBytes(data []byte) *Bitmap {
	b := &Bitmap{words: make([]uint64, (len(data)+7)/8)}
	for i, by := range data {
		b.words[i>>3] |= uint64(by) << (uint(i&7) * 8)
	}
	return b
}
