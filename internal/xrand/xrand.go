// Package xrand provides a small, fast, deterministic pseudo-random
// number generator used throughout the simulation.
//
// The whole repository must be reproducible: two runs with the same
// seed produce byte-identical traces, sample counts, and collision
// statistics. math/rand would work, but its global state and larger
// footprint make accidental nondeterminism easy; xrand makes the seed
// explicit at every construction site.
//
// The generator is xorshift64* (Vigna 2014), which passes BigCrush for
// the purposes of statistical sampling perturbation and workload
// shuffling. It is not cryptographically secure and must never be used
// for anything security sensitive.
package xrand

// RNG is a deterministic xorshift64* generator. The zero value is not
// valid; use New.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed. A zero seed is remapped to
// a fixed nonzero constant because xorshift has an all-zero fixed
// point.
func New(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15 // golden-ratio constant
	}
	return &RNG{state: seed}
}

// Derive returns a new generator whose stream is a deterministic
// function of the parent seed and the given stream label. It is used
// to give every core / trial / workload an independent stream without
// cross-contaminating the parent sequence.
func (r *RNG) Derive(label uint64) *RNG {
	// SplitMix64 step over (state ^ label) decorrelates the child.
	z := r.state ^ (label+1)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return New(z)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Uint32 returns the next 32 pseudo-random bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a pseudo-random uint64 in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with n == 0")
	}
	return r.Uint64() % n
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perturb returns a zero-mean perturbation in (-2^(bits-1), 2^(bits-1)].
// ARM SPE adds a small random dither to the sampling interval counter
// so that the selected operations are not phase-locked with loop
// bodies; Perturb models that dither. bits == 0 returns 0 (dither
// disabled, as when the PMSIRR jitter bit is clear).
func (r *RNG) Perturb(bits uint) int64 {
	if bits == 0 {
		return 0
	}
	if bits > 16 {
		bits = 16
	}
	span := int64(1) << bits
	return int64(r.Uint64n(uint64(span))) - span/2
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }
