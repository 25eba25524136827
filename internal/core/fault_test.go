package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"dimm/internal/cluster"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/imm"
)

// faultDIIMMCluster builds the cluster cluster.NewLocal would for opt
// (one of a DIIMM run, or with a pair seed one of an OPIM-C pair) with
// the victim's conn wrapped in a FaultConn, and recovery respawning
// fresh workers from the same configs (the replay-failover tier).
func faultDIIMMCluster(t *testing.T, g *graph.Graph, opt Options, victim int, respawnWorks bool) (*cluster.Cluster, *cluster.FaultConn) {
	t.Helper()
	cfgs := make([]cluster.WorkerConfig, opt.Machines)
	conns := make([]cluster.Conn, opt.Machines)
	var fc *cluster.FaultConn
	for i := range cfgs {
		cfgs[i] = cluster.WorkerConfig{
			Graph: g, Model: opt.Model, Subset: opt.Subset,
			Seed:        cluster.DeriveSeed(opt.Seed, i),
			Parallelism: ResolveParallelism(opt.Parallelism, opt.Machines),
		}
		w, err := cluster.NewWorker(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = cluster.NewLocalConn(w)
		if i == victim {
			fc = cluster.NewFaultConn(conns[i])
			conns[i] = fc
		}
	}
	cl, err := cluster.New(conns, g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if err := cl.EnableRecovery(cluster.Recovery{
		Respawn: func(i int) (cluster.Conn, error) {
			if !respawnWorks {
				return nil, fmt.Errorf("worker host gone")
			}
			w, err := cluster.NewWorker(cfgs[i])
			if err != nil {
				return nil, err
			}
			return cluster.NewLocalConn(w), nil
		},
		Retries: 2,
		Backoff: time.Millisecond,
		Salt:    opt.Seed,
	}); err != nil {
		t.Fatal(err)
	}
	return cl, fc
}

// TestDIIMMFailoverByteIdentical is the end-to-end acceptance property:
// a full DIIMM run with a worker killed mid-generation, failed over by
// respawn + journal replay, must return the exact seed set of the
// fault-free run at the same seed.
func TestDIIMMFailoverByteIdentical(t *testing.T) {
	g := testGraph(t, 400)
	opt := Options{K: 8, Eps: 0.3, Machines: 3, Model: diffusion.IC, Seed: 11}
	want, err := RunDIIMM(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Call 1 on every conn is the Reset; calls 2/3 land in the first
	// generate + degree-sync round, later indexes in subsequent rounds or
	// the selection phase.
	for _, killAt := range []int64{2, 3, 5} {
		t.Run(fmt.Sprintf("killAt=%d", killAt), func(t *testing.T) {
			cl, fc := faultDIIMMCluster(t, g, opt.withDefaults(g.NumNodes()), 1, true)
			fc.KillAtCall(killAt)
			got, err := RunDIIMMOnCluster(g.NumNodes(), cl, opt)
			if err != nil {
				t.Fatalf("DIIMM with failover: %v", err)
			}
			if fc.Faults() == 0 {
				t.Fatalf("fault at call %d never fired (%d calls made)", killAt, fc.Calls())
			}
			if got.Theta != want.Theta {
				t.Fatalf("theta %d != fault-free %d", got.Theta, want.Theta)
			}
			if len(got.Seeds) != len(want.Seeds) {
				t.Fatalf("%d seeds != %d", len(got.Seeds), len(want.Seeds))
			}
			for i := range want.Seeds {
				if got.Seeds[i] != want.Seeds[i] {
					t.Fatalf("seed %d: %v vs fault-free %v", i, got.Seeds, want.Seeds)
				}
			}
		})
	}
}

// TestDIIMMSurvivesQuarantine: when no replacement ever comes up, the
// run must still complete through the quarantine + rebalance tier — the
// sample keeps its size and i.i.d. law, so the guarantee machinery
// (theta schedule, certificate) runs unchanged; only byte-identity with
// the fault-free run is given up.
func TestDIIMMSurvivesQuarantine(t *testing.T) {
	g := testGraph(t, 400)
	opt := Options{K: 8, Eps: 0.3, Machines: 3, Model: diffusion.IC, Seed: 11}
	want, err := RunDIIMM(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, killAt := range []int64{2, 4, 6} {
		t.Run(fmt.Sprintf("killAt=%d", killAt), func(t *testing.T) {
			cl, fc := faultDIIMMCluster(t, g, opt.withDefaults(g.NumNodes()), 2, false)
			fc.KillAtCall(killAt)
			got, err := RunDIIMMOnCluster(g.NumNodes(), cl, opt)
			if err != nil {
				t.Fatalf("DIIMM with quarantine: %v", err)
			}
			// The rebalanced streams are i.i.d. with — but different from —
			// the lost ones, so the data-dependent theta schedule and seed
			// picks may differ; the run must still complete with a sample
			// of the planned order and a spread estimate close to the
			// fault-free run's (same law, same guarantee).
			if got.Theta < want.Theta/2 || got.Theta > want.Theta*2 {
				t.Fatalf("theta %d far from fault-free %d", got.Theta, want.Theta)
			}
			if len(got.Seeds) != opt.K {
				t.Fatalf("returned %d seeds, want %d", len(got.Seeds), opt.K)
			}
			if diff := got.EstSpread - want.EstSpread; diff < -0.15*want.EstSpread || diff > 0.15*want.EstSpread {
				t.Fatalf("estimated spread %.1f far from fault-free %.1f", got.EstSpread, want.EstSpread)
			}
			if h := cl.Health(); h[2].Up {
				t.Fatal("victim still up despite failing respawns")
			}
		})
	}
}

// TestDOPIMCFailoverByteIdentical: distributed OPIM-C fails over like
// DIIMM. A worker of either sample killed mid-run and replaced by
// respawn + journal replay leaves the seeds, θ and certificate of the
// fault-free run unchanged.
func TestDOPIMCFailoverByteIdentical(t *testing.T) {
	g := testGraph(t, 400)
	opt := Options{K: 5, Eps: 0.3, Delta: 0.05, Machines: 3, Model: diffusion.IC, Seed: 2}
	want, err := RunDOPIMC(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Calls 1/2 on every conn are the first generate + degree sync; later
	// indexes land in later rounds, the selection or the R2 coverage
	// queries.
	for _, tc := range []struct {
		sample int
		killAt int64
	}{{0, 1}, {0, 6}, {1, 2}, {1, 5}} {
		t.Run(fmt.Sprintf("R%d/killAt=%d", tc.sample+1, tc.killAt), func(t *testing.T) {
			// The pair NewClusterPair builds, with every worker 1 behind a
			// FaultConn; only the one of tc.sample's cluster is scripted.
			var pair [2]*cluster.Cluster
			var fcs [2]*cluster.FaultConn
			for j, seed := range imm.PairSeeds(opt.Seed) {
				o := opt.withDefaults(g.NumNodes())
				o.Seed = seed
				pair[j], fcs[j] = faultDIIMMCluster(t, g, o, 1, true)
			}
			fc := fcs[tc.sample].KillAtCall(tc.killAt)
			got, err := runDOPIMC(g.NumNodes(), pair, opt.withDefaults(g.NumNodes()))
			if err != nil {
				t.Fatalf("OPIM-C with failover: %v", err)
			}
			if fc.Faults() == 0 {
				t.Fatalf("fault at call %d never fired (%d calls made)", tc.killAt, fc.Calls())
			}
			if got.Theta != want.Theta || got.SpreadLower != want.SpreadLower ||
				got.OptUpper != want.OptUpper || got.Ratio != want.Ratio {
				t.Fatalf("θ=%d certificate (%v, %v, %v) != fault-free θ=%d (%v, %v, %v)",
					got.Theta, got.SpreadLower, got.OptUpper, got.Ratio,
					want.Theta, want.SpreadLower, want.OptUpper, want.Ratio)
			}
			if !slices.Equal(got.Seeds, want.Seeds) {
				t.Fatalf("seeds %v != fault-free %v", got.Seeds, want.Seeds)
			}
		})
	}
}
