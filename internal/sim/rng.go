// Package sim provides small deterministic simulation primitives shared by
// the NoC model: a fast seedable random number generator and cycle types.
//
// Determinism matters for a simulator: two runs with the same seed must
// produce identical cycle-by-cycle behaviour so that experiments are
// reproducible and regressions are bisectable. We therefore avoid math/rand
// global state and give every component its own RNG stream derived from a
// master seed.
package sim

import (
	"math"
	"math/bits"
)

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

// Uint64 returns the next 64 random bits. It works on local copies of the
// state words and writes the new state in one store, which keeps it, and
// Hit around it, within the compiler's inlining budget.
func (r *RNG) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	s2 ^= s0
	s3 ^= s1
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
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

// Threshold is Bernoulli(p) with its comparison done once: Hit draws the
// same value Bernoulli(p) would and decides with an integer compare.
type Threshold uint64

// The Thresholds of the p that Bernoulli decides without a draw. Every
// other p maps to at most 1<<53.
const (
	thresholdNever  Threshold = 1<<53 + 1
	thresholdAlways Threshold = 1<<53 + 2
)

// NewThreshold returns p's Threshold: ceil(p·2^53) for 0 < p < 1. A draw's
// top 53 bits k give Float64() = k/2^53 exactly, and k/2^53 < p holds
// exactly when the integer k is below ceil(p·2^53), so Hit and Bernoulli
// agree on every draw.
func NewThreshold(p float64) Threshold {
	switch {
	case p <= 0:
		return thresholdNever
	case p >= 1:
		return thresholdAlways
	case p > 0:
		return Threshold(math.Ceil(p * (1 << 53)))
	}
	return 0 // NaN: Bernoulli draws, and nothing is below NaN
}

// Hit returns Bernoulli(p) for t = NewThreshold(p), from the same draws.
func (r *RNG) Hit(t Threshold) bool {
	if t <= 1<<53 {
		return Threshold(r.Uint64()>>11) < t
	}
	return t == thresholdAlways
}

// Shuffle permutes xs in place.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
