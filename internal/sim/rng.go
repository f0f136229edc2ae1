// Package sim provides small deterministic simulation primitives shared by
// the NoC model: a fast seedable random number generator and cycle types.
//
// Determinism matters for a simulator: two runs with the same seed must
// produce identical cycle-by-cycle behaviour so that experiments are
// reproducible and regressions are bisectable. We therefore avoid math/rand
// global state and give every component its own RNG stream derived from a
// master seed.
package sim

import "math/bits"

// Cycle is a simulation timestamp in clock cycles.
type Cycle = int64

// RNG is a splitmix64-seeded xoshiro256** generator. It is not safe for
// concurrent use; each component owns its own instance.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64, which
// guarantees a well-mixed internal state even for small or similar seeds.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent stream from r, keyed by id. Components that
// must not perturb each other's random sequences (e.g. per-node traffic
// generators) each take a split stream. Split streams are also the unit
// of RNG ownership under the parallel cycle kernel: each router draws
// only from its own pre-split stream during the concurrent compute
// phase, so no generator is ever shared across goroutines and the
// consumed sequence is independent of scheduling.
func (r *RNG) Split(id uint64) *RNG {
	return NewRNG(r.Uint64() ^ (id * 0x9e3779b97f4a7c15) ^ 0xd1b54a32d192ed03)
}

// State returns the generator's internal state, for checkpointing.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState overwrites the generator's internal state, for restore. The
// caller is responsible for passing a state captured by State; an
// all-zero state would make the generator emit zeros forever.
func (r *RNG) SetState(s [4]uint64) { r.s = s }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := bits.Mul64(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Shuffle permutes xs in place.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
