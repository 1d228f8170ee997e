package sim

import (
	"math"
	"math/bits"
)

// Rand is a small, fast, deterministic random stream (splitmix64 core).
// Each cell gets its own substream so adding a cell or reordering events
// does not perturb the draws of other cells.
type Rand struct {
	state uint64
}

// NewRand returns a stream seeded with seed.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Substream derives an independent stream from r labelled by id, without
// consuming r's state in an id-dependent way.
func Substream(seed uint64, id uint64) *Rand {
	r := SubstreamValue(seed, id)
	return &r
}

// SubstreamValue is Substream returning the stream by value, for callers
// that embed per-cell streams in a slab (one allocation for 10^6 cells
// instead of one per cell). The stream is identical to Substream's.
func SubstreamValue(seed uint64, id uint64) Rand {
	// Mix the id through one splitmix round so adjacent ids decorrelate.
	z := seed + 0x9e3779b97f4a7c15*(id+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return Rand{state: z ^ (z >> 31)}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed float64 with mean 1
// (inverse-CDF method; adequate for traffic modelling).
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// ExpTicks returns an exponentially distributed duration with the given
// mean, rounded to at least 1 tick so successive events always advance
// virtual time.
func (r *Rand) ExpTicks(mean float64) Time {
	t := Time(math.Round(r.ExpFloat64() * mean))
	if t < 1 {
		t = 1
	}
	return t
}

// Poisson returns a Poisson-distributed count with the given mean
// (Knuth's product-of-uniforms, run in log space so it stays exact for
// any mean instead of underflowing exp(-mean) near mean ~ 700). Cost is
// O(mean) uniform draws; the warm-start seeder uses it to draw each
// cell's stationary Erlang occupancy.
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	k := 0
	logp := 0.0
	for {
		u := r.Float64()
		if u == 0 {
			continue // Float64 is [0, 1); log needs (0, 1]
		}
		logp += math.Log(u)
		if logp < -mean {
			return k
		}
		k++
	}
}
