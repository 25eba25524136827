package core

import (
	"math"
	"reflect"
	"testing"

	"dimm/internal/cluster"
	"dimm/internal/coverage"
	"dimm/internal/diffusion"
	"dimm/internal/imm"
)

func TestDistributedOPIMC(t *testing.T) {
	g := testGraph(t, 400)
	res, err := RunDOPIMC(g, Options{K: 5, Eps: 0.3, Delta: 0.05, Machines: 4, Model: diffusion.IC, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 5 {
		t.Fatalf("got %d seeds", len(res.Seeds))
	}
	if res.Ratio < 1-1/math.E-0.3-1e-9 {
		t.Fatalf("stopped below the target ratio: %v", res.Ratio)
	}
	if res.Metrics.BytesSent == 0 || res.Metrics.GenTotal == 0 {
		t.Fatal("cluster accounting empty")
	}
	// Same quality band as DIIMM on the same instance.
	diimm, err := RunDIIMM(g, Options{K: 5, Eps: 0.3, Delta: 0.05, Machines: 4, Model: diffusion.IC, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.EstSpread-diimm.EstSpread) > 0.3*diimm.EstSpread {
		t.Fatalf("OPIM-C spread %v far from DIIMM's %v", res.EstSpread, diimm.EstSpread)
	}
	t.Logf("OPIM-C: theta=%d×2 ratio=%.3f vs DIIMM theta=%d", res.Theta, res.Ratio, diimm.Theta)
}

// TestDistributedOPIMCMergesEveryMetric: RunDOPIMC's accounting is the
// field-by-field sum of its two clusters', traffic split, delta codec and
// batch counters included.
func TestDistributedOPIMCMergesEveryMetric(t *testing.T) {
	g := testGraph(t, 300)
	opt := Options{K: 4, Eps: 0.4, Delta: 0.05, Machines: 2, Model: diffusion.IC, Seed: 5}.withDefaults(g.NumNodes())
	pair, err := NewClusterPair(opt.workerConfig(g), opt.Machines, cluster.Recovery{})
	if err != nil {
		t.Fatal(err)
	}
	defer pair[0].Close()
	defer pair[1].Close()
	res, err := runDOPIMC(g.NumNodes(), pair, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := pair[0].Metrics()
	want.Add(pair[1].Metrics())
	if !reflect.DeepEqual(res.Metrics, want) {
		t.Fatalf("merged metrics\n%+v\nwant R1 + R2\n%+v", res.Metrics, want)
	}
	m := res.Metrics
	if m.GenBytesSent == 0 || m.SelBytesReceived == 0 || m.DeltaFrames == 0 || m.DeltaBytes == 0 || m.Batch.Waves == 0 {
		t.Fatalf("merged metrics lost a counter: %+v", m)
	}
}

func TestDistributedOPIMCDeterministic(t *testing.T) {
	g := testGraph(t, 250)
	opt := Options{K: 3, Eps: 0.4, Delta: 0.05, Machines: 3, Model: diffusion.LT, Seed: 8}
	a, err := RunDOPIMC(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDOPIMC(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Theta != b.Theta {
		t.Fatal("OPIM-C theta differs across identical runs")
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatal("OPIM-C seeds differ across identical runs")
		}
	}
}

// TestThetaMeetsSampleSizeRequirement: the run must end with at least
// λ*/LB RR sets — the condition Theorem 1's guarantee rests on.
func TestThetaMeetsSampleSizeRequirement(t *testing.T) {
	g := testGraph(t, 350)
	const k, eps, delta = 4, 0.35, 0.05
	res, err := RunDIIMM(g, Options{K: k, Eps: eps, Delta: delta, Machines: 3, Model: diffusion.IC, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	p, err := imm.ComputeParams(g.NumNodes(), k, eps, delta)
	if err != nil {
		t.Fatal(err)
	}
	if need := p.FinalTheta(res.LowerBound); res.Theta < need {
		t.Fatalf("theta %d below λ*/LB = %d (LB %v)", res.Theta, need, res.LowerBound)
	}
	if res.LowerBound < 1 {
		t.Fatalf("lower bound %v below the trivial 1", res.LowerBound)
	}
	// LB must itself be a plausible bound: never above n.
	if res.LowerBound > float64(g.NumNodes()) {
		t.Fatalf("lower bound %v exceeds n", res.LowerBound)
	}
}

func TestGatherAllSelectBaseline(t *testing.T) {
	g := testGraph(t, 300)
	cl, err := cluster.NewLocal(cluster.WorkerConfig{Graph: g, Model: diffusion.IC, Seed: 3}, 4, g.NumNodes(), cluster.Recovery{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Generate(2000); err != nil {
		t.Fatal(err)
	}

	gather, err := GatherAllSelect(g.NumNodes(), cl, 8)
	if err != nil {
		t.Fatal(err)
	}
	if gather.GatherBytes == 0 {
		t.Fatal("gather traffic not recorded")
	}
	// Must equal NEWGREEDI on the same cluster bit for bit.
	ng, err := coverage.RunGreedy(cl.Oracle(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if ng.Coverage != gather.Coverage {
		t.Fatalf("gather-all coverage %d != NEWGREEDI %d", gather.Coverage, ng.Coverage)
	}
	for i := range ng.Seeds {
		if ng.Seeds[i] != gather.Seeds[i] {
			t.Fatal("gather-all and NEWGREEDI disagree")
		}
	}
}
