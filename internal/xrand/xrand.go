// Package xrand provides fast, deterministic pseudo-random number
// generation for the samplers in this repository.
//
// The influence-maximization pipeline draws billions of random numbers
// (one per edge inspected during reverse-reachable-set generation), so the
// generator must be cheap, allocation-free and seedable per machine so that
// distributed runs are reproducible. We implement xoshiro256++ seeded
// through SplitMix64, the combination recommended by Blackman and Vigna.
// math/rand is avoided on the hot path: its global lock and interface
// indirection are measurable at this call volume.
package xrand

import "math"

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used to expand a single 64-bit seed into the 256-bit xoshiro state.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256++ pseudo-random generator. The zero value is not
// usable; construct with New. Rand is not safe for concurrent use; each
// machine (worker) owns its own instance.
type Rand struct {
	s0, s1, s2, s3 uint64
}

// New returns a generator deterministically derived from seed.
// Distinct seeds yield statistically independent streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator to the stream identified by seed.
func (r *Rand) Seed(seed uint64) {
	sm := seed
	r.s0 = splitMix64(&sm)
	r.s1 = splitMix64(&sm)
	r.s2 = splitMix64(&sm)
	r.s3 = splitMix64(&sm)
	// A xoshiro state of all zeros is a fixed point; SplitMix64 cannot
	// produce four zero outputs in a row, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s0+r.s3, 23) + r.s0
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Next returns the next 64 random bits and the advanced generator, by
// value. A caller that draws in a loop copies the generator into a
// local, threads it through Next and stores it back once: the four state
// words then live in registers for the whole loop, where Uint64 through
// a pointer reloads and stores them on every draw. The step is spelled
// out a second time rather than shared with Uint64: routed through Next,
// Uint64 exceeds the inlining budget and every other draw pays a call.
func (r Rand) Next() (uint64, Rand) {
	result := rotl(r.s0+r.s3, 23) + r.s0
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result, r
}

// Skip advances the generator by n draws.
func (r *Rand) Skip(n int) {
	g := *r
	for ; n > 0; n-- {
		_, g = g.Next()
	}
	*r = g
}

// Unit maps 64 random bits to a uniform value in [0, 1) with 53 bits of
// precision: exactly (u>>11)·2⁻⁵³.
func Unit(u uint64) float64 {
	return float64(u>>11) * (1.0 / (1 << 53))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return Unit(r.Uint64())
}

// coinThreshold returns the integer T = ⌈float64(p)·2⁵³⌉, clamped to
// [0, 2⁵³] (NaN → 0), for which a draw u succeeds as a coin of bias p iff
// u>>11 < T. That is the same outcome as Unit(u) < float64(p), bit for
// bit: Unit(u) is exactly (u>>11)·2⁻⁵³, float64(p)·2⁵³ is exact for every
// float32 (a power-of-two scale of a 24-bit mantissa, no overflow, no
// underflow), and an integer is below a real iff it is below its ceiling.
func coinThreshold(p float32) uint64 {
	t := float64(p) * (1 << 53)
	if !(t > 0) { // zero, negatives, NaN: never succeeds
		return 0
	}
	if t >= 1<<53 { // p ≥ 1, +Inf: always succeeds
		return 1 << 53
	}
	return uint64(math.Ceil(t))
}

// AppendCoins flips one coin per entry of an adjacency block — entry i
// with bias prob[i], from consecutive draws of r — and appends adj[i] to
// dst for every success. It is the one place an IC edge coin is flipped.
// Draws, outcomes and the state r is left in are exactly those of
//
//	for i, w := range adj {
//		if r.Float64() < float64(prob[i]) {
//			dst = append(dst, w)
//		}
//	}
//
// but the generator state stays in registers for the whole block. The
// biases of a block change from entry to entry, so each coin is the
// float comparison itself: computing or caching an integer threshold per
// entry costs more than it saves (a changed probability is an
// unpredictable branch). len(prob) must be at least len(adj).
func (r *Rand) AppendCoins(dst, adj []uint32, prob []float32) []uint32 {
	if len(adj) == 0 {
		return dst
	}
	prob = prob[:len(adj)]
	// Successes are rare (a hub of in-degree d flips d coins of bias 1/d),
	// so the slice header is reached through a pointer: that keeps its
	// three words in memory and leaves the registers to the generator
	// state, which the compiler otherwise spills inside the loop.
	out := &dst
	g := *r
	var u uint64
	for i, p := range prob {
		if u, g = g.Next(); Unit(u) < float64(p) {
			*out = append(*out, adj[i])
		}
	}
	*r = g
	return *out
}

// AppendUniformCoins is AppendCoins for a block whose every entry has
// bias p (a node's in-edges when graph.UniformIn holds): draws, outcomes
// and the final state are those of AppendCoins with prob[i] = p, but the
// comparison is an integer one against a threshold computed once for the
// block, and the loop reads adj only on a success.
func (r *Rand) AppendUniformCoins(dst, adj []uint32, p float32) []uint32 {
	if len(adj) == 0 {
		return dst
	}
	out := &dst // as in AppendCoins
	g := *r
	var u uint64
	t := coinThreshold(p)
	for i := range adj {
		if u, g = g.Next(); u>>11 < t {
			*out = append(*out, adj[i])
		}
	}
	*r = g
	return *out
}

// Uint32n returns a uniform value in [0, n). n must be positive.
// It uses Lemire's multiply-shift rejection method, which avoids the
// modulo instruction on the hot path.
func (r *Rand) Uint32n(n uint32) uint32 {
	v := uint32(r.Uint64())
	prod := uint64(v) * uint64(n)
	low := uint32(prod)
	if low < n {
		thresh := -n % n
		for low < thresh {
			v = uint32(r.Uint64())
			prod = uint64(v) * uint64(n)
			low = uint32(prod)
		}
	}
	return uint32(prod >> 32)
}

// Intn returns a uniform value in [0, n). n must be positive and fit in 32 bits.
func (r *Rand) Intn(n int) int {
	return int(r.Uint32n(uint32(n)))
}

// Bernoulli reports true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// LogComplement returns log(1 − p), the per-bias constant of
// GeometricLog, or −Inf for p >= 1 (every flip succeeds). A scan that
// jumps repeatedly at one bias computes it once.
func LogComplement(p float64) float64 {
	if p >= 1 {
		return math.Inf(-1)
	}
	return math.Log(1 - p)
}

// GeometricLog returns the number of failures before the first success
// of a Bernoulli(p) sequence, i.e. a sample of the Geometric(p)
// distribution on {0, 1, 2, ...}, given logQ = LogComplement(p). It is
// the core of subset sampling (SUBSIM): to visit the success positions
// of d independent coins of bias p, jump ahead by GeometricLog+1
// positions at a time instead of flipping d coins. p must satisfy
// 0 < p <= 1; p >= 1 returns 0 without a draw.
func (r *Rand) GeometricLog(logQ float64) int {
	if math.IsInf(logQ, -1) {
		return 0
	}
	u := r.Float64()
	// Guard against u == 0, for which Log is -Inf and the floor overflows.
	for u == 0 {
		u = r.Float64()
	}
	g := math.Floor(math.Log(u) / logQ)
	if g > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(g)
}

// Perm fills out with a uniform random permutation of [0, len(out)).
func (r *Rand) Perm(out []int) {
	for i := range out {
		out[i] = i
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}

// Shuffle permutes xs uniformly at random (Fisher–Yates).
func (r *Rand) Shuffle(xs []uint32) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// MachineSeed derives the seed for machine index i from a run-level base
// seed. A SplitMix64 step decorrelates adjacent machine streams far better
// than base+i would.
func MachineSeed(base uint64, machine int) uint64 {
	s := base ^ (0x5851f42d4c957f2d * (uint64(machine) + 1))
	return splitMix64(&s)
}

// LaneSeed derives the RNG lane for RR set number `set` (a lifetime
// counter, 0-based) of the stream identified by base. Giving every RR set
// its own counter-derived lane makes the draws consumed by set t a pure
// function of (base, t): a batched sampler can interleave many in-flight
// sets in any order and still reproduce the scalar sampler's output
// bit for bit.
func LaneSeed(base, set uint64) uint64 {
	s := base ^ (0xbf58476d1ce4e5b9 * (set + 1))
	return splitMix64(&s)
}

// SketchRank derives the bottom-k sketch rank of diffusion instance
// `set` under the rank stream identified by base. The rank is a pure
// function of (base, set) — no generator state is consumed — so a
// sketch builder can visit instances in any order, from any number of
// shards, and assign every instance the same rank: the order-invariance
// that makes sketch construction deterministic at any parallelism, the
// same trick LaneSeed plays for batched RR sampling.
func SketchRank(base, set uint64) uint64 {
	s := base ^ (0xd6e8feb86659fd93 * (set + 1))
	return splitMix64(&s)
}

// ScanSeed derives the generator seed for the in-edge scan of one node
// inside one RR-set lane. Keying the scan by (lane, node) — rather than
// drawing from a sequential per-set stream — makes every edge coin a pure
// function of (lane, node, edge index), independent of the order in which
// a traversal happens to visit nodes. That order-invariance is what lets
// a level-synchronous batched kernel group many frontiers' scans of the
// same adjacency block without perturbing any set's coins.
func ScanSeed(lane uint64, node uint32) uint64 {
	s := lane ^ (0x94d049bb133111eb * (uint64(node) + 1))
	return splitMix64(&s)
}
