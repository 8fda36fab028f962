package histvar

import "math/bits"

// Bitset is a fixed-capacity set of token ids, sized at creation. The zero
// value is unusable; call NewBitset.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns an empty set able to hold ids 0..n-1.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Add inserts id. Out-of-range ids are ignored.
func (b *Bitset) Add(id int) {
	if id < 0 || id >= b.n {
		return
	}
	b.words[id>>6] |= 1 << (uint(id) & 63)
}

// Has reports whether id is in the set.
//
//countnet:allow apivet -- Lemma 3.1-3.3 checker API, run only by tests: the package has no non-test importer (E12)
func (b *Bitset) Has(id int) bool {
	if id < 0 || id >= b.n {
		return false
	}
	return b.words[id>>6]&(1<<(uint(id)&63)) != 0
}

// UnionWith adds every element of o to b.
func (b *Bitset) UnionWith(o *Bitset) {
	for i := range b.words {
		if i < len(o.words) {
			b.words[i] |= o.words[i]
		}
	}
}

// Count returns the cardinality of the set.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// ForEach calls fn for every element in increasing order.
func (b *Bitset) ForEach(fn func(id int)) {
	for i, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			fn(i*64 + bit)
			w &= w - 1
		}
	}
}

// Clone returns an independent copy.
//
//countnet:allow apivet -- Lemma 3.1-3.3 checker API, run only by tests: the package has no non-test importer (E12)
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}
