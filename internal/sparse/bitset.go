package sparse

// Bitset is a minimal fixed-capacity bit vector. The engines use one per
// graph side to track which nodes' scores changed between iterations
// (MaxAbsDiffChanged marks it), so the next pass can skip output rows
// whose inputs are all unchanged.
type Bitset struct {
	words []uint64
}

// NewBitset returns a cleared bitset with capacity for n bits.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64)}
}

// Resize re-dimensions the bitset to n bits and clears it, reusing the
// word array when it is large enough.
func (b *Bitset) Resize(n int) {
	words := (n + 63) / 64
	if words > cap(b.words) {
		b.words = make([]uint64, words)
		return
	}
	b.words = b.words[:words]
	b.Clear()
}

// Clear zeroes every bit, keeping capacity.
func (b *Bitset) Clear() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Set sets bit i.
func (b *Bitset) Set(i int) {
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Has reports whether bit i is set.
func (b *Bitset) Has(i int) bool {
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Or sets every bit o has; o must be no longer than b.
func (b *Bitset) Or(o *Bitset) {
	for i, w := range o.words {
		b.words[i] |= w
	}
}
