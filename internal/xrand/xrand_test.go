package xrand

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 agree on %d/1000 outputs; streams are correlated", same)
	}
}

func TestSeedReset(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("after reseed, output %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestUint32nBounds(t *testing.T) {
	r := New(5)
	if err := quick.Check(func(n uint32, steps uint8) bool {
		if n == 0 {
			n = 1
		}
		for i := 0; i < int(steps); i++ {
			if v := r.Uint32n(n); v >= n {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint32nUniform(t *testing.T) {
	r := New(9)
	const buckets = 10
	const draws = 500000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Uint32n(buckets)]++
	}
	want := float64(draws) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d: count %d deviates from %v by more than 5 sigma", b, c, want)
		}
	}
}

func TestBernoulli(t *testing.T) {
	r := New(13)
	const draws = 200000
	const p = 0.3
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) frequency = %v", p, got)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(17)
	const draws = 200000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		sum := 0.0
		for i := 0; i < draws; i++ {
			sum += float64(r.GeometricLog(LogComplement(p)))
		}
		mean := sum / draws
		want := (1 - p) / p
		if math.Abs(mean-want) > 0.05*math.Max(want, 1) {
			t.Fatalf("GeometricLog(LogComplement(%v)) mean = %v, want %v", p, mean, want)
		}
	}
}

func TestGeometricPOne(t *testing.T) {
	r := New(19)
	for i := 0; i < 100; i++ {
		if g := r.GeometricLog(LogComplement(1)); g != 0 {
			t.Fatalf("GeometricLog(LogComplement(1)) = %d, want 0", g)
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(23)
	xs := make([]uint32, 100)
	for i := range xs {
		xs[i] = uint32(i)
	}
	r.Shuffle(xs)
	seen := make(map[uint32]bool, len(xs))
	for _, x := range xs {
		if x >= 100 || seen[x] {
			t.Fatalf("shuffle broke the multiset: %v", xs)
		}
		seen[x] = true
	}
}

func TestPerm(t *testing.T) {
	r := New(29)
	out := make([]int, 50)
	r.Perm(out)
	seen := make(map[int]bool)
	for _, x := range out {
		if x < 0 || x >= 50 || seen[x] {
			t.Fatalf("Perm produced invalid permutation: %v", out)
		}
		seen[x] = true
	}
}

func TestMachineSeedDistinct(t *testing.T) {
	seen := make(map[uint64]int)
	for m := 0; m < 1000; m++ {
		s := MachineSeed(12345, m)
		if prev, ok := seen[s]; ok {
			t.Fatalf("machines %d and %d share seed %d", prev, m, s)
		}
		seen[s] = m
	}
}

func TestCumulativeSampler(t *testing.T) {
	weights := []float64{1, 0, 3, 6}
	c, err := NewCumulative(weights)
	if err != nil {
		t.Fatal(err)
	}
	r := New(31)
	const draws = 300000
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		counts[c.Sample(r)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index sampled %d times", counts[1])
	}
	for i, w := range weights {
		want := w / 10 * draws
		if w == 0 {
			continue
		}
		if math.Abs(float64(counts[i])-want) > 6*math.Sqrt(want) {
			t.Fatalf("index %d: %d draws, want ~%v", i, counts[i], want)
		}
	}
}

func TestCumulativeErrors(t *testing.T) {
	if _, err := NewCumulative(nil); err == nil {
		t.Fatal("want error for empty weights")
	}
	if _, err := NewCumulative([]float64{0, 0}); err == nil {
		t.Fatal("want error for all-zero weights")
	}
	if _, err := NewCumulative([]float64{1, -1}); err == nil {
		t.Fatal("want error for negative weight")
	}
}

func TestAliasSampler(t *testing.T) {
	weights := []float64{5, 1, 0, 4}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	r := New(37)
	const draws = 300000
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		counts[a.Sample(r)]++
	}
	if counts[2] != 0 {
		t.Fatalf("zero-weight index sampled %d times", counts[2])
	}
	for i, w := range weights {
		if w == 0 {
			continue
		}
		want := w / 10 * draws
		if math.Abs(float64(counts[i])-want) > 6*math.Sqrt(want) {
			t.Fatalf("index %d: %d draws, want ~%v", i, counts[i], want)
		}
	}
}

func TestAliasErrors(t *testing.T) {
	if _, err := NewAlias(nil); err == nil {
		t.Fatal("want error for empty weights")
	}
	if _, err := NewAlias([]float64{0}); err == nil {
		t.Fatal("want error for zero total")
	}
	if _, err := NewAlias([]float64{-1, 2}); err == nil {
		t.Fatal("want error for negative weight")
	}
}

func TestAliasMatchesCumulative(t *testing.T) {
	// Property: alias and cumulative samplers agree on the distribution.
	weights := []float64{2, 7, 1, 1, 9, 0.5}
	a, _ := NewAlias(weights)
	c, _ := NewCumulative(weights)
	ra, rc := New(41), New(43)
	const draws = 400000
	ca := make([]float64, len(weights))
	cc := make([]float64, len(weights))
	for i := 0; i < draws; i++ {
		ca[a.Sample(ra)]++
		cc[c.Sample(rc)]++
	}
	for i := range weights {
		diff := math.Abs(ca[i]-cc[i]) / draws
		if diff > 0.01 {
			t.Fatalf("samplers disagree on index %d: alias %v vs cumulative %v", i, ca[i]/draws, cc[i]/draws)
		}
	}
}

// referenceCoins is the per-edge loop the samplers used before the
// coin-scan kernel, spelled out so it shares nothing with the code under
// test but Uint64.
func referenceCoins(r *Rand, dst, adj []uint32, prob []float32) []uint32 {
	for i, w := range adj {
		if float64(r.Uint64()>>11)*(1.0/(1<<53)) < float64(prob[i]) {
			dst = append(dst, w)
		}
	}
	return dst
}

// adversarialProbs are float32 values on and around every edge of the
// threshold map: the clamps, the non-numbers, the range where
// float64(p)·2⁵³ is not an integer (p < 2⁻³⁰), and the float32
// neighbours of k/2⁵³ for small k.
func adversarialProbs() []float32 {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	ps := []float32{
		0, float32(math.Copysign(0, -1)), -0.25, -1, -inf, nan, inf,
		1, math.Nextafter32(1, 0), math.Nextafter32(1, 2), 1.5, math.MaxFloat32,
		math.SmallestNonzeroFloat32, 2 * math.SmallestNonzeroFloat32, 0x1p-126, math.Nextafter32(0x1p-126, 0),
		0.5, 1.0 / 3, 0.1, 0.01, 0.001, 1.0 / 4096,
	}
	for e := 24; e <= 60; e++ {
		ps = append(ps, float32(math.Ldexp(1, -e)))
	}
	for _, k := range []float64{1, 2, 3, 5, 1023, 1 << 20, 1<<24 - 1} {
		b := float32(math.Ldexp(k, -53)) // exact: k has at most 24 bits
		ps = append(ps, b, math.Nextafter32(b, 0), math.Nextafter32(b, 1))
	}
	return ps
}

// TestCoinThresholdMatchesFloatCompare checks the identity the kernel
// rests on at the draws random sampling never reaches: for every
// adversarial p and every 53-bit draw k around the threshold,
// k < coinThreshold(p) iff k·2⁻⁵³ < float64(p).
func TestCoinThresholdMatchesFloatCompare(t *testing.T) {
	for _, p := range adversarialProbs() {
		th := coinThreshold(p)
		if th > 1<<53 {
			t.Fatalf("p=%v: threshold %d above 2^53", p, th)
		}
		ks := []uint64{0, 1, 2, 1<<53 - 2, 1<<53 - 1}
		for d := uint64(0); d <= 2; d++ {
			ks = append(ks, th+d)
			if th >= d {
				ks = append(ks, th-d)
			}
		}
		for _, k := range ks {
			if k >= 1<<53 {
				continue
			}
			u := k<<11 | 0x7ff // low bits must not matter
			if got, want := u>>11 < th, Unit(u) < float64(p); got != want {
				t.Fatalf("p=%v (bits %#08x) k=%d: integer compare %v, float compare %v", p, math.Float32bits(p), k, got, want)
			}
		}
	}
}

// TestAppendCoinsMatchesReference is the property test of the kernel:
// same success positions and the same generator state afterwards as the
// reference loop, for uniform blocks of every adversarial probability
// (through AppendUniformCoins and AppendCoins) and mixed blocks that switch
// probability mid-block, at block lengths around the interesting sizes.
func TestAppendCoinsMatchesReference(t *testing.T) {
	ps := adversarialProbs()
	check := func(name string, seed uint64, prob []float32, uniform bool) {
		t.Helper()
		adj := make([]uint32, len(prob))
		for i := range adj {
			adj[i] = uint32(i)
		}
		got, want := New(seed), New(seed)
		prefix := []uint32{7, 7}
		var gotPos []uint32
		if uniform {
			var p float32
			if len(prob) > 0 {
				p = prob[0]
			}
			gotPos = got.AppendUniformCoins(slices.Clone(prefix), adj, p)
		} else {
			gotPos = got.AppendCoins(slices.Clone(prefix), adj, prob)
		}
		wantPos := referenceCoins(want, slices.Clone(prefix), adj, prob)
		if !slices.Equal(gotPos, wantPos) {
			t.Fatalf("%s: success positions %v, reference %v", name, gotPos, wantPos)
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("%s: generator state diverged after the block (next draw %#x, reference %#x)", name, g, w)
		}
	}
	for _, n := range []int{0, 1, 2, 63, 64, 4097} {
		for pi, p := range ps {
			prob := make([]float32, n)
			for i := range prob {
				prob[i] = p
			}
			name := fmt.Sprintf("n=%d p=%v", n, p)
			check(name+" uniform", uint64(n*1000+pi), prob, true)
			check(name+" unpromised", uint64(n*1000+pi), prob, false)
		}
		// Mixed blocks: runs of 1..5 equal entries drawn from the
		// adversarial list, switching probability mid-block.
		for trial := 0; trial < 20; trial++ {
			pick := New(uint64(trial))
			prob := make([]float32, 0, n)
			for len(prob) < n {
				p := ps[pick.Intn(len(ps))]
				for run := 1 + pick.Intn(5); run > 0 && len(prob) < n; run-- {
					prob = append(prob, p)
				}
			}
			check(fmt.Sprintf("n=%d mixed trial %d", n, trial), uint64(trial)+77, prob, false)
		}
	}
}

// TestNextAndSkipFollowUint64 pins the by-value step and the skip to the
// pointer generator's stream.
func TestNextAndSkipFollowUint64(t *testing.T) {
	ref, byValue := New(5), *New(5)
	for i := 0; i < 100; i++ {
		var u uint64
		if u, byValue = byValue.Next(); u != ref.Uint64() {
			t.Fatalf("draw %d: Next diverges from Uint64", i)
		}
	}
	for _, n := range []int{0, 1, 2, 63, 1000} {
		skipped := New(9)
		skipped.Skip(n)
		ref := New(9)
		for i := 0; i < n; i++ {
			ref.Uint64()
		}
		if skipped.Uint64() != ref.Uint64() {
			t.Fatalf("Skip(%d) is not %d draws", n, n)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkGeometric(b *testing.B) {
	r := New(1)
	logQ := LogComplement(0.1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.GeometricLog(logQ)
	}
	_ = sink
}

// BenchmarkScanCoins is the yardstick of the IC coin-scan kernel: ns per
// coin at leaf, typical and hub degrees, for weighted-cascade-like
// uniform blocks (bias 1/d, integer threshold hoisted) and mixed
// trivalency-like blocks (per-entry comparison), each beside the
// reference per-edge loop the kernel replaced, on the same probabilities.
func BenchmarkScanCoins(b *testing.B) {
	for _, d := range []int{4, 64, 4096} {
		adj := make([]uint32, d)
		uniform := make([]float32, d)
		mixed := make([]float32, d)
		pick := New(3)
		for i := range adj {
			adj[i] = uint32(i)
			uniform[i] = 1 / float32(d)
			mixed[i] = [3]float32{0.1, 0.01, 0.001}[pick.Intn(3)]
		}
		run := func(name string, scan func(r *Rand, dst []uint32) []uint32) {
			b.Run(fmt.Sprintf("%s/d=%d", name, d), func(b *testing.B) {
				r := New(1)
				dst := make([]uint32, 0, d)
				for i := 0; i < b.N; i++ {
					dst = scan(r, dst[:0])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(d), "ns/coin")
			})
		}
		run("uniform", func(r *Rand, dst []uint32) []uint32 { return r.AppendUniformCoins(dst, adj, uniform[0]) })
		run("mixed", func(r *Rand, dst []uint32) []uint32 { return r.AppendCoins(dst, adj, mixed) })
		run("reference-uniform", func(r *Rand, dst []uint32) []uint32 { return referenceCoins(r, dst, adj, uniform) })
		run("reference-mixed", func(r *Rand, dst []uint32) []uint32 { return referenceCoins(r, dst, adj, mixed) })
	}
}
