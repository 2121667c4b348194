// Package workload provides deterministic synthetic click-log generation:
// a seeded random number generator, power-law samplers, an intent-hierarchy
// topic model, and a query/ad population builder. Together with package
// sponsored it substitutes for the proprietary Yahoo! click logs used in the
// Simrank++ paper while preserving their measured statistical shape
// (power-law ads-per-query, queries-per-ad and clicks-per-edge
// distributions).
package workload

// RNG is a small, fast, deterministic pseudo-random generator
// (xorshift128+ seeded via splitmix64). Every randomized component in this
// repository draws from an explicit RNG so experiments are reproducible
// bit-for-bit from a single uint64 seed.
type RNG struct {
	s0, s1 uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from a single uint64 seed.
func (r *RNG) Seed(seed uint64) {
	// splitmix64 to expand the seed into two nonzero state words.
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0 = next()
	r.s1 = next()
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1
	}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Fork derives an independent generator from this one. Child streams are
// decorrelated from the parent and from each other, which lets callers hand
// out per-subsystem RNGs from one top-level seed.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() ^ 0xd1342543de82ef95)
}
