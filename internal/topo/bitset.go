package topo

import "math/bits"

// Bitset is a packed set of directed channels: bit i at word i/64,
// position i%64. It is the channel-occupancy representation of
// Occupancy and of the simulator, and the range methods below test and
// update runs of consecutive channel ids (mesh.Run) a word at a time.
// Every range is inclusive, [lo, hi] with lo <= hi, and must lie
// inside the set.
type Bitset []uint64

// BitsetWords returns the []uint64 length a channel-occupancy bitset
// needs for numChannels directed channels.
func BitsetWords(numChannels int) int { return (numChannels + 63) / 64 }

// rangeMask returns the bits of word w that fall inside [lo, hi].
func rangeMask(w, lo, hi int) uint64 {
	m := ^uint64(0)
	if w == lo>>6 {
		m <<= uint(lo) & 63
	}
	if w == hi>>6 {
		m &= ^uint64(0) >> (63 - uint(hi)&63)
	}
	return m
}

// AnyIn reports whether any bit in [lo, hi] is set.
func (b Bitset) AnyIn(lo, hi int) bool {
	for w := lo >> 6; w <= hi>>6; w++ {
		if b[w]&rangeMask(w, lo, hi) != 0 {
			return true
		}
	}
	return false
}

// SetIn sets every bit in [lo, hi].
func (b Bitset) SetIn(lo, hi int) {
	for w := lo >> 6; w <= hi>>6; w++ {
		b[w] |= rangeMask(w, lo, hi)
	}
}

// ClearIn clears every bit in [lo, hi].
func (b Bitset) ClearIn(lo, hi int) {
	for w := lo >> 6; w <= hi>>6; w++ {
		b[w] &^= rangeMask(w, lo, hi)
	}
}

// FirstIn returns the lowest set bit in [lo, hi], or -1 if none is.
// An empty range (lo > hi) has none.
func (b Bitset) FirstIn(lo, hi int) int {
	for w := lo >> 6; w <= hi>>6; w++ {
		if v := b[w] & rangeMask(w, lo, hi); v != 0 {
			return w<<6 + bits.TrailingZeros64(v)
		}
	}
	return -1
}

// LastIn returns the highest set bit in [lo, hi], or -1 if none is.
func (b Bitset) LastIn(lo, hi int) int {
	for w := hi >> 6; w >= lo>>6; w-- {
		if v := b[w] & rangeMask(w, lo, hi); v != 0 {
			return w<<6 + 63 - bits.LeadingZeros64(v)
		}
	}
	return -1
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}
