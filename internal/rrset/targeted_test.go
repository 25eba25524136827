package rrset

import (
	"math"
	"testing"

	"dimm/internal/diffusion"
)

func TestSetRootWeightsValidation(t *testing.T) {
	g := fig1(t)
	s, err := NewSampler(g, diffusion.IC, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetRootWeights([]float64{1, 2}); err == nil {
		t.Fatal("wrong weight length accepted")
	}
	if err := s.SetRootWeights([]float64{0, 0, 0, 0}); err == nil {
		t.Fatal("zero weights accepted")
	}
	if err := s.SetRootWeights([]float64{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRootWeights(nil); err != nil {
		t.Fatal("reset to uniform failed")
	}
}

// TestTargetedRootDistribution: roots must follow the weight vector.
func TestTargetedRootDistribution(t *testing.T) {
	g := fig1(t)
	s, err := NewSampler(g, diffusion.IC, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	weights := []float64{4, 0, 1, 5}
	if err := s.SetRootWeights(weights); err != nil {
		t.Fatal(err)
	}
	c := NewCollection(1024)
	t.Cleanup(c.Release)
	const draws = 200000
	counts := make([]float64, 4)
	for i := 0; i < draws; i++ {
		s.SampleInto(c)
		counts[c.Set(c.Count() - 1)[0]]++ // root is the first member
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight node rooted %v times", counts[1])
	}
	for v, w := range weights {
		want := w / 10
		got := counts[v] / draws
		if math.Abs(got-want) > 6*math.Sqrt(want*(1-want)/draws)+1e-9 {
			t.Fatalf("root %d frequency %v, want %v", v, got, want)
		}
	}
}

// TestTargetedUnbiasedness: with all root weight on v4, the hit rate of
// {v1} equals Pr[v1 activates v4] — which on the Fig. 1 graph is exactly
// σ({v1}) − 3 = 0.664 under IC (v2, v3 are always activated).
func TestTargetedUnbiasedness(t *testing.T) {
	g := fig1(t)
	s, err := NewSampler(g, diffusion.IC, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetRootWeights([]float64{0, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	c := NewCollection(1024)
	t.Cleanup(c.Release)
	const draws = 300000
	hits := 0
	for i := 0; i < draws; i++ {
		s.SampleInto(c)
		for _, v := range c.Set(c.Count() - 1) {
			if v == 0 {
				hits++
				break
			}
		}
	}
	got := float64(hits) / draws
	const want = 0.664
	sigma := math.Sqrt(want * (1 - want) / draws)
	if math.Abs(got-want) > 5*sigma {
		t.Fatalf("Pr[v1 ∈ RR(v4)] = %v, want %v (sigma %v)", got, want, sigma)
	}
}
