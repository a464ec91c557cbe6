// Package rng provides a deterministic, splittable pseudo-random number
// generator and the distributions needed by the simulator and the
// tomography estimators.
//
// Everything in this repository that consumes randomness takes a *Source
// explicitly; no package-level global generator exists. That makes every
// simulation scenario reproducible bit-for-bit from a single seed, which the
// experiment harness relies on when comparing tomography schemes on
// identical packet-loss realisations.
//
// The core generator is xoshiro256** (Blackman & Vigna), chosen because it
// is tiny, fast, passes BigCrush, and supports cheap deterministic
// "splitting" via its jump polynomial so that independent subsystems (radio,
// MAC, routing jitter, workload) can draw from decorrelated streams derived
// from one scenario seed.
package rng

import "math"

// Source is a xoshiro256** generator. The zero value is invalid; construct
// with New or Split.
//
// A Source is single-consumer state: every draw mutates it, so under the
// sharded engine each stream is confined to the shard that owns its node
// (rng.Derive hands out disjoint per-node streams).
type Source struct {
	s [4]uint64
}

// splitMix64 is used to seed the state from a single word, per the xoshiro
// authors' recommendation, so that similar seeds yield unrelated states.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given seed. Two Sources built from
// the same seed produce identical streams.
func New(seed uint64) *Source {
	sm := seed
	var s Source
	for i := range s.s {
		s.s[i] = splitMix64(&sm)
	}
	// A pathological all-zero state would lock the generator at zero;
	// splitMix64 cannot produce four zero words from any input, but guard
	// anyway so the invariant is local and obvious.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 1
	}
	return &s
}

// Derive returns the idx-th member of a family of decorrelated streams keyed
// by seed. Unlike Split it needs no shared parent state, so callers can
// derive stream idx directly — the sharded simulation uses this to give every
// node its own stream from (scenario seed, node id), making each node's draw
// sequence independent of how events from different nodes interleave.
func Derive(seed, idx uint64) *Source {
	// Feed both words through the splitMix64 finalizer so that adjacent
	// indices land on unrelated states (same construction New uses for
	// adjacent seeds).
	sm := seed ^ (idx+0x6a09e667f3bcc909)*0x9e3779b97f4a7c15
	var s Source
	for i := range s.s {
		s.s[i] = splitMix64(&sm)
	}
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 1
	}
	return &s
}

// NewStreams returns n streams Derive(seed, 0..n-1), allocated in one block.
func NewStreams(seed uint64, n int) []*Source {
	out := make([]*Source, n)
	for i := range out {
		out[i] = Derive(seed, uint64(i))
	}
	return out
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
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

// jump is the xoshiro256 jump polynomial; applying it advances the stream by
// 2^128 steps, yielding a non-overlapping subsequence.
var jump = [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}

// Split returns a new Source whose stream is guaranteed not to overlap with
// the receiver's next 2^128 outputs, and advances the receiver past the
// split point. Use it to derive independent streams for subsystems.
func (r *Source) Split() *Source {
	child := *r
	var s0, s1, s2, s3 uint64
	for _, j := range jump {
		for b := 0; b < 64; b++ {
			if j&(1<<uint(b)) != 0 {
				s0 ^= r.s[0]
				s1 ^= r.s[1]
				s2 ^= r.s[2]
				s3 ^= r.s[3]
			}
			r.Uint64()
		}
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
	return &child
}

// Float64 returns a uniform value in [0, 1) with 53 random bits.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's nearly-divisionless bounded technique avoids modulo bias.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	carry := t >> 32
	t = aHi*bLo + carry
	mid := t & mask
	hiPart := t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi = aHi*bHi + hiPart + (t >> 32)
	return hi, lo
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Range returns a uniform value in [lo, hi).
func (r *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Normal returns a draw from N(mean, stddev^2) using the Box-Muller
// transform. stddev must be non-negative.
func (r *Source) Normal(mean, stddev float64) float64 {
	// Box-Muller needs u1 in (0,1]; Float64 returns [0,1).
	u1 := 1 - r.Float64()
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Exp returns a draw from the exponential distribution with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	return -math.Log(1-r.Float64()) / rate
}

// Geometric returns the number of Bernoulli(p) failures before the first
// success, i.e. a draw from Geom(p) supported on {0, 1, 2, ...}. It panics
// unless 0 < p <= 1.
func (r *Source) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric needs 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	// Inverse CDF: floor(log(U) / log(1-p)).
	u := 1 - r.Float64()
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}

// Perm returns a random permutation of [0, n) via Fisher-Yates.
func (r *Source) Perm(n int) []int {
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

// Shuffle randomly reorders the first n elements using swap, mirroring the
// contract of math/rand.Shuffle.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
