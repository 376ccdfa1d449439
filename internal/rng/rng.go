// Package rng provides the random-number machinery of the particle
// simulation: cheap per-lane generator streams (one independent stream per
// virtual processor, matching the per-processor randomness of the CM-2
// implementation; a pass keys its phase once with KeyAt and derives each
// cell's stream with the inlined Key.At), the front-end table of the 120
// permutations of five elements used to initialise particle permutation
// vectors, random transpositions for refreshing those vectors, and the
// velocity-distribution samplers (rectangular and drifting-Maxwellian)
// needed by the reservoir and the freestream initialisation.
package rng

import "math"

// splitmix64 advances the seeding state; used to derive well-separated
// per-lane stream seeds from a single master seed.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a single xorshift64* generator with a cached Box–Muller spare.
// The zero value is invalid; create streams with NewStream or Streams.
type Stream struct {
	s         uint64
	spare     float64
	haveSpare bool
}

// NewStream returns a stream seeded from seed via splitmix64, so that
// nearby seeds yield uncorrelated streams.
func NewStream(seed uint64) Stream {
	st := seed
	return Stream{s: splitmix64(&st) | 1}
}

// Uint64 returns the next 64 random bits.
func (r *Stream) Uint64() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545f4914f6cdd1d
}

// Uint32 returns 32 random bits.
func (r *Stream) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Bit returns a single random bit as 0 or 1.
func (r *Stream) Bit() uint32 { return uint32(r.Uint64() >> 63) }

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *Stream) Intn(n int) int {
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Rect returns a sample from the rectangular (uniform) distribution with
// mean 0 and the given standard deviation: uniform on
// [-sigma*sqrt(3), sigma*sqrt(3)]. This is the distribution the reservoir
// assigns to incoming particles; collisions then relax it to a Gaussian.
func (r *Stream) Rect(sigma float64) float64 {
	halfWidth := sigma * math.Sqrt(3)
	return (2*r.Float64() - 1) * halfWidth
}

// Normal returns a standard normal sample via the Box–Muller transform.
// The second value of each pair is cached.
func (r *Stream) Normal() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	var u float64
	for u == 0 {
		u = r.Float64()
	}
	v := r.Float64()
	m := math.Sqrt(-2 * math.Log(u))
	r.spare = m * math.Sin(2*math.Pi*v)
	r.haveSpare = true
	return m * math.Cos(2*math.Pi*v)
}

// Gaussian returns a normal sample with the given mean and std deviation.
func (r *Stream) Gaussian(mean, sigma float64) float64 {
	return mean + sigma*r.Normal()
}

// StreamState is the exported state of a Stream — the generator word and
// the Box–Muller spare — for checkpointing. Restoring the state and
// continuing yields the exact draw sequence the original stream would
// have produced.
type StreamState struct {
	S         uint64
	Spare     float64
	HaveSpare bool
}

// State exports the stream's state for a checkpoint.
func (r *Stream) State() StreamState {
	return StreamState{S: r.s, Spare: r.spare, HaveSpare: r.haveSpare}
}

// SetState restores a checkpointed state.
func (r *Stream) SetState(st StreamState) {
	r.s, r.spare, r.haveSpare = st.S, st.Spare, st.HaveSpare
}

// goldenGamma is the splitmix64 increment (the odd integer nearest
// 2^64/φ); jobSeedTag is a fixed domain-separation constant so job-seed
// derivation can never coincide with any other use of the master seed.
const (
	goldenGamma = 0x9e3779b97f4a7c15
	jobSeedTag  = 0x6a6f625f73656564 // "job_seed"
)

// JobSeed derives the simulation seed of job index job from a master
// seed: the splitmix64 output at state master ^ jobSeedTag + (job+1)·γ.
// Two properties make the derivation safe for ensembles:
//
//   - Distinct job indices of one master can never receive equal seeds:
//     γ is odd, so state = base + (job+1)·γ is injective in job modulo
//     2^64, and the splitmix64 finalizer is a bijection.
//   - A job seed cannot collide with the inner per-cell streams by
//     construction: a simulation never uses its seed as generator state —
//     every inner stream is keyed through the three-round splitmix chain
//     of KeyAt and Key.At over (seed, epoch, lane) — so the derived
//     value enters the stream machinery exactly as a hand-picked seed
//     would, and the jobSeedTag domain constant keeps the derivation
//     chain itself disjoint from KeyAt's (which never XORs the tag).
func JobSeed(master, job uint64) uint64 {
	st := (master ^ jobSeedTag) + job*goldenGamma
	return splitmix64(&st)
}

// Key is the (seed, epoch) half of a counter-based stream coordinate:
// two splitmix64 rounds that depend on nothing but the seed and the
// epoch, so a phase computes them once and derives every lane's stream
// from the result with Key.At.
type Key uint64

// KeyAt returns the key of coordinate (seed, epoch). The parallel
// reference backends key one stream per cell (or per particle) per
// phase — epoch encodes (step, phase), lane the cell or particle index —
// so results are bit-identical for any worker count.
func KeyAt(seed, epoch uint64) Key {
	st := seed
	st = splitmix64(&st) ^ epoch
	return Key(splitmix64(&st))
}

// At returns the stream at lane under key k: the same (seed, epoch,
// lane) triple always yields the same stream, and distinct triples yield
// statistically independent streams (each word is absorbed through a
// full splitmix64 round). It is one round, small enough for the compiler
// to inline at every per-cell call site.
//
//dsmc:inline
func (k Key) At(lane uint64) Stream {
	st := uint64(k) ^ lane
	return Stream{s: splitmix64(&st) | 1}
}

// Streams creates n independent streams seeded from a master seed,
// one per virtual processor lane.
func Streams(seed uint64, n int) []Stream {
	st := seed
	out := make([]Stream, n)
	for i := range out {
		out[i] = Stream{s: splitmix64(&st) | 1}
	}
	return out
}
