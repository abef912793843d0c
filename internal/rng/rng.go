// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the benchmarking platform.
//
// All stochastic components of the platform (diffusion simulations, live-edge
// sampling, synthetic graph generation, threshold draws) take an explicit
// *rng.Source so that every experiment is reproducible from a single 64-bit
// seed. The generator is xoroshiro128+ seeded by splitmix64; it is not
// cryptographically secure, which is fine: we need speed and statistical
// quality, not secrecy.
package rng

import "math"

// Source is a deterministic pseudo-random number generator. It is NOT safe
// for concurrent use; derive one Source per goroutine with Split.
type Source struct {
	s0, s1 uint64
}

// New returns a Source seeded from seed. Two Sources created with the same
// seed produce identical streams.
func New(seed uint64) *Source {
	r := &Source{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state derived from seed via splitmix64, which
// guarantees well-distributed state even for small or sequential seeds.
func (r *Source) Seed(seed uint64) {
	r.s0 = splitmix64(&seed)
	r.s1 = splitmix64(&seed)
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

// splitmix64 advances *x and returns the next splitmix64 output.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly random bits (xoroshiro128+).
func (r *Source) Uint64() uint64 {
	x := r.s0 + r.s1
	r.s0, r.s1 = step(r.s0, r.s1)
	return x
}

// step is the xoroshiro128+ state transition.
func step(s0, s1 uint64) (uint64, uint64) {
	s1 ^= s0
	return rotl(s0, 55) ^ s1 ^ (s1 << 14), rotl(s1, 36)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Split derives an independent child generator. The child's stream is a
// deterministic function of the parent state; the parent advances once.
func (r *Source) Split() *Source {
	seed := r.Uint64()
	return New(seed)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high-quality bits -> [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NextFloat64 is Float64 on a value receiver: it returns the same draw and
// the advanced state instead of writing it back. A hot loop copies *r into
// a local once, steps the local so the state stays in registers, and
// stores it back once; the draws are exactly the ones Float64 would have
// made.
func (r Source) NextFloat64() (float64, Source) {
	x := r.s0 + r.s1
	r.s0, r.s1 = step(r.s0, r.s1)
	return float64(x>>11) / (1 << 53), r
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int31n returns a uniform int32 in [0, n). It panics if n <= 0.
func (r *Source) Int31n(n int32) int32 {
	if n <= 0 {
		panic("rng: Int31n called with n <= 0")
	}
	return int32(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method, avoiding the modulo bias of naive reduction.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling on the top bits.
	threshold := -n % n
	for {
		v := r.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Bool returns true with probability p. Probabilities outside [0,1] clamp.
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n) as a slice of ints.
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of the first n elements using swap.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Exp returns an exponentially distributed float64 with rate lambda.
func (r *Source) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("rng: Exp called with lambda <= 0")
	}
	u := r.Float64()
	// Guard against log(0).
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -math.Log(1-u) / lambda
}

// NormFloat64 returns a standard-normally distributed float64 using the
// Marsaglia polar method.
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Geometric returns a geometrically distributed trial count with success
// probability p: the number of Bernoulli(p) failures before the first
// success. Used for skip-sampling in snapshot generation.
func (r *Source) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("rng: Geometric called with p <= 0")
	}
	u := r.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}
