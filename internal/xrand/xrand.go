// Package xrand provides deterministic, splittable pseudo-random streams and
// the small set of distributions the workload generator and oracle execution
// need. Everything in the simulator that involves chance derives from a
// Stream split off a single root seed, so whole-simulation runs are
// bit-reproducible across machines and Go versions (no dependence on
// math/rand's global state or version-specific algorithms).
package xrand

import "math"

// Stream is a small-state PCG-style generator (xsh-rr output function over a
// 64-bit LCG) with an explicit increment, which makes independent substreams
// cheap: two streams with different increments never correlate.
type Stream struct {
	state uint64
	inc   uint64
}

const mult = 6364136223846793005

// New returns a Stream seeded from seed with the default sequence selector.
func New(seed uint64) *Stream {
	return NewSeq(seed, 0xda3e39cb94b95bdb)
}

// NewSeq returns a Stream over sequence seq. Streams with distinct seq values
// are independent even for equal seeds.
func NewSeq(seed, seq uint64) *Stream {
	s := &Stream{inc: seq<<1 | 1}
	s.state = s.inc + seed
	s.Uint64()
	return s
}

// Split derives an independent child stream. The child is a pure function of
// the parent's current state, and advances the parent once, so repeated
// splits yield distinct children.
func (s *Stream) Split() *Stream {
	return NewSeq(s.Uint64(), s.Uint64())
}

// Uint64 returns the next 64 bits of the stream.
func (s *Stream) Uint64() uint64 {
	// Two PCG-XSH-RR 32-bit outputs glued together keeps the state small
	// while passing the statistical quality bar this simulator needs.
	hi := s.next32()
	lo := s.next32()
	return uint64(hi)<<32 | uint64(lo)
}

func (s *Stream) next32() uint32 {
	old := s.state
	s.state = old*mult + s.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Uint32 returns the next 32 bits of the stream.
func (s *Stream) Uint32() uint32 { return s.next32() }

// Intn returns a uniform integer in [0, n). n must be > 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Range returns a uniform integer in [lo, hi] inclusive. Requires lo <= hi.
func (s *Stream) Range(lo, hi int) int {
	if hi < lo {
		panic("xrand: Range with hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}

// Geometric returns a sample from a geometric distribution with success
// probability p, i.e. the number of failures before the first success.
// The result is clamped to max.
func (s *Stream) Geometric(p float64, max int) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return max
	}
	n := int(math.Log(1-s.Float64()) / math.Log(1-p))
	if n > max {
		n = max
	}
	if n < 0 {
		n = 0
	}
	return n
}

// Zipf draws from a Zipf distribution over [0, n) with exponent theta using
// inverse-CDF sampling against a precomputed table. Build one with NewZipf.
type Zipf struct {
	cdf []float64
}

// NewZipf precomputes the CDF for a Zipf(theta) distribution over n items.
// theta = 0 degenerates to uniform; larger theta concentrates probability on
// low indices (hot items), which is how the workload generator models the
// hot/cold split of server code.
func NewZipf(n int, theta float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Sample draws an index in [0, n).
func (z *Zipf) Sample(s *Stream) int {
	u := s.Float64()
	// Binary search for the first cdf entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Hash64 mixes three 64-bit values into one, suitable for stateless
// replayable decisions (e.g. "is occurrence k of branch b taken?"). It is a
// strengthened xor-fold of splitmix64 finalisers.
func Hash64(a, b, c uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9 ^ c*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashBool returns a deterministic pseudo-random boolean that is true with
// probability p, as a pure function of the three inputs.
func HashBool(a, b, c uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(Hash64(a, b, c)>>11)/(1<<53) < p
}
