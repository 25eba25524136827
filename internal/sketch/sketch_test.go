package sketch

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"dimm/internal/rrset"
	"dimm/internal/xrand"
)

// genInstances builds a deterministic synthetic instance collection:
// count diffusion instances over n nodes, node membership biased so low
// ids are heavily covered (exercising the estimator regime) and high ids
// sparsely (exercising the exact regime).
func genInstances(t testing.TB, n, count int, seed uint64) (*rrset.Collection, [][]bool) {
	t.Helper()
	c := rrset.NewCollection(0)
	member := make([][]bool, n) // member[v][j]
	for v := range member {
		member[v] = make([]bool, count)
	}
	rng := xrand.New(seed)
	var buf []uint32
	for j := 0; j < count; j++ {
		buf = buf[:0]
		for v := 0; v < n; v++ {
			// Coverage falls off with the node id: node 0 is in ~60% of
			// instances, the tail in well under k of them.
			p := 0.6 / (1 + float64(v)/8)
			if rng.Bernoulli(p) {
				buf = append(buf, uint32(v))
				member[v][j] = true
			}
		}
		c.Append(buf, int64(len(buf)))
	}
	return c, member
}

func trueCovers(member [][]bool, v uint32) int {
	return trueCoversPrefix(member, v, len(member[v]))
}

// trueCoversPrefix counts the instances among [0, count) containing v.
func trueCoversPrefix(member [][]bool, v uint32, count int) int {
	n := 0
	for _, in := range member[v][:count] {
		if in {
			n++
		}
	}
	return n
}

func trueUnion(member [][]bool, seeds []uint32) int {
	if len(member) == 0 {
		return 0
	}
	count := len(member[0])
	n := 0
	for j := 0; j < count; j++ {
		for _, v := range seeds {
			if member[v][j] {
				n++
				break
			}
		}
	}
	return n
}

func mustNew(t testing.TB, n int, p Params) *Set {
	t.Helper()
	s, err := New(n, p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEstimatorExactBelowK(t *testing.T) {
	c, member := genInstances(t, 200, 1500, 7)
	s := mustNew(t, 200, Params{K: 64, Seed: 99})
	s.Absorb(c.Snapshot(), 1)
	exactChecked := 0
	for v := uint32(0); v < 200; v++ {
		truth := trueCovers(member, v)
		if truth < 64 {
			if got := s.EstimateCovers(v); got != float64(truth) {
				t.Fatalf("node %d: %d instances (< k) should be exact, estimated %.2f", v, truth, got)
			}
			exactChecked++
		}
	}
	if exactChecked == 0 {
		t.Fatal("test instance has no sub-k nodes; estimator's exact regime untested")
	}
}

func TestEstimatorAccuracyAboveK(t *testing.T) {
	const k = 64
	c, member := genInstances(t, 200, 1500, 7)
	s := mustNew(t, 200, Params{K: k, Seed: 99})
	s.Absorb(c.Snapshot(), 1)
	tol := 6 / math.Sqrt(k-2) // 6 relative standard errors
	checked := 0
	for v := uint32(0); v < 200; v++ {
		truth := trueCovers(member, v)
		if truth < 4*k {
			continue
		}
		got := s.EstimateCovers(v)
		if rel := math.Abs(got-float64(truth)) / float64(truth); rel > tol {
			t.Errorf("node %d: true %d, estimated %.1f (rel err %.3f > %.3f)", v, truth, got, rel, tol)
		}
		checked++
	}
	if checked < 5 {
		t.Fatalf("only %d nodes in the estimator regime; instance generator drifted", checked)
	}
	// Union estimate over a spread-out seed set.
	seeds := []uint32{0, 17, 40, 90, 150}
	truth := trueUnion(member, seeds)
	got, _ := s.UnionEstimate(seeds)
	if rel := math.Abs(got-float64(truth)) / float64(truth); rel > tol {
		t.Errorf("union of %v: true %d, estimated %.1f (rel err %.3f > %.3f)", seeds, truth, got, rel, tol)
	}
}

// TestAbsorbParallelismDeterminism is the satellite determinism check:
// the sketch bytes must be identical at P ∈ {1, 2, 4}, one-shot or
// incrementally absorbed, because every (instance, rank) pair is a pure
// function of position. Run under -race this also proves the node-range
// sharding writes are disjoint. After every absorb, and after a decode,
// each slot must be sized to what its node holds (checkSlots), and the
// bytes must hash to encodeGolden.
func TestAbsorbParallelismDeterminism(t *testing.T) {
	c, member := genInstances(t, 301, 1200, 21) // odd n: uneven shard ranges
	snap := c.Snapshot()
	var want []byte
	for _, p := range []int{1, 2, 4} {
		s := mustNew(t, 301, Params{K: 32, Seed: 5})
		s.Absorb(snap, p)
		if full := checkSlots(t, s, member, snap.Count(), fmt.Sprintf("one-shot P=%d", p)); full == 0 || full == 301 {
			t.Fatalf("%d of 301 slots full: the instances must exercise both the exact and the bottom-k regime", full)
		}
		enc := s.Encode()
		if want == nil {
			want = enc
			sum := sha256.Sum256(want)
			if got := hex.EncodeToString(sum[:]); got != encodeGolden {
				t.Fatalf("Encode digest %s, want %s", got, encodeGolden)
			}
			continue
		}
		if !bytes.Equal(want, enc) {
			t.Fatalf("sketch bytes differ between parallelism 1 and %d", p)
		}
	}
	dec, err := Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	checkSlots(t, dec, member, snap.Count(), "decoded")
	// Incremental absorption in four uneven chunks must land on the same
	// bytes as one shot: ranks are positional, not arrival-ordered.
	for _, p := range []int{1, 4} {
		s := mustNew(t, 301, Params{K: 32, Seed: 5})
		partial := rrset.NewCollection(0)
		cuts := []int{1, 700, 1100, snap.Count()}
		prev := 0
		for _, cut := range cuts {
			for j := prev; j < cut; j++ {
				partial.Append(snap.Set(j), 0)
			}
			prev = cut
			s.Absorb(partial.Snapshot(), p)
			checkSlots(t, s, member, cut, fmt.Sprintf("P=%d after %d instances", p, cut))
		}
		if !bytes.Equal(want, s.Encode()) {
			t.Fatalf("incremental absorb at parallelism %d diverged from one-shot bytes", p)
		}
	}
}

// checkSlots asserts the arena invariant after instances [0, count):
// node v's slot holds exactly min(K, instances containing v) ranks and
// the arena holds nothing else. Returns how many slots are full (K long).
func checkSlots(t *testing.T, s *Set, member [][]bool, count int, label string) (full int) {
	t.Helper()
	total := 0
	for v := uint32(0); v < uint32(s.N()); v++ {
		want := min(s.K(), trueCoversPrefix(member, v, count))
		if got := len(s.nodeRanks(v)); got != want {
			t.Fatalf("%s: node %d holds %d ranks, want min(K=%d, covers) = %d", label, v, got, s.K(), want)
		}
		if want == s.K() {
			full++
		}
		total += want
	}
	if len(s.ranks) != total {
		t.Fatalf("%s: arena holds %d ranks, slots account for %d", label, len(s.ranks), total)
	}
	return full
}

// encodeGolden is the SHA-256 of Encode() over genInstances(301, 1200,
// 21) absorbed at K = 32, seed 5, recorded with the fixed-stride n×K
// layout the CSR arena replaced: the arena moved no byte.
const encodeGolden = "950b3801f29b6ea3e4782e44ddfa4ff82e2f96deeadf38a4fe5896745cf8e27b"

func TestEstimateSpreadScaling(t *testing.T) {
	c, member := genInstances(t, 100, 800, 13)
	s := mustNew(t, 100, Params{K: 48, Seed: 2})
	s.Absorb(c.Snapshot(), 1)
	truth := float64(trueCovers(member, 0)) * 100 / 800
	got := s.EstimateSpread(0)
	if math.Abs(got-truth)/truth > 1 {
		t.Fatalf("spread estimate %.2f far from %.2f", got, truth)
	}
	est, evals := s.EstimateSpreadSet([]uint32{0, 50})
	if est <= 0 || evals != 1 {
		t.Fatalf("EstimateSpreadSet = %.2f with %d evals", est, evals)
	}
}
