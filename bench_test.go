// Benchmarks: one per table and figure of the paper's evaluation (run the
// cmd/experiments harness for the full sweeps and formatted tables; these
// testing.B entries keep each experiment's core loop under `go test
// -bench`), plus ablation benches for the design choices in DESIGN.md.
package dimm

import (
	"fmt"
	"sync"
	"testing"

	"dimm/internal/cluster"
	"dimm/internal/core"
	"dimm/internal/coverage"
	"dimm/internal/diffusion"
	"dimm/internal/rrset"
	"dimm/internal/workload"
)

// benchGraph lazily builds the smallest Table III stand-in once.
var benchGraph = sync.OnceValues(func() (*Graph, error) {
	return workload.Specs(workload.ScaleTiny)[0].Build() // facebook-sim
})

func mustBenchGraph(b *testing.B) *Graph {
	b.Helper()
	g, err := benchGraph()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchOpts are deliberately loose (ε=0.5, k=10) so a full DIIMM run fits
// in a benchmark iteration; cmd/experiments runs the paper's settings.
func benchOpts(machines int, model Model, subset bool) core.Options {
	return core.Options{
		K: 10, Eps: 0.5, Delta: 0.05, Machines: machines,
		Model: model, Subset: subset, Seed: 1,
	}
}

// BenchmarkTableIII_Datasets regenerates the Table III stand-in graphs.
func BenchmarkTableIII_Datasets(b *testing.B) {
	spec := workload.Specs(workload.ScaleTiny)[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := spec.Build()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(g.NumEdges()), "edges")
	}
}

// BenchmarkTableIV_RRSetStats measures a DIIMM run and reports the Table
// IV quantities (#RR sets and their total size) as custom metrics.
func BenchmarkTableIV_RRSetStats(b *testing.B) {
	g := mustBenchGraph(b)
	for i := 0; i < b.N; i++ {
		res, err := core.RunDIIMM(g, benchOpts(4, IC, false))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Theta), "RRsets")
		b.ReportMetric(float64(res.Stats.TotalSize), "totalSize")
	}
}

// benchCluster runs DIIMM across machine counts on the in-process
// transport (the Figs. 6/7/9 shape).
func benchCores(b *testing.B, model Model, subset bool) {
	g := mustBenchGraph(b)
	for _, machines := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("l=%d", machines), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.RunDIIMM(g, benchOpts(machines, model, subset))
				if err != nil {
					b.Fatal(err)
				}
				// The paper's Fig. 6 y-axis (modeled ℓ-machine wall time).
				b.ReportMetric(res.Metrics.CriticalPath().Seconds(), "cluster-s")
				b.ReportMetric(res.Metrics.GenCritical.Seconds(), "gen-s")
				b.ReportMetric(res.Metrics.Comm.Seconds(), "comm-s")
			}
		})
	}
}

// BenchmarkFig6_DIIMM_IC_Cores: DIIMM, IC, multi-core server.
func BenchmarkFig6_DIIMM_IC_Cores(b *testing.B) { benchCores(b, IC, false) }

// BenchmarkFig7_DSUBSIM_IC_Cores: distributed SUBSIM, IC, multi-core.
func BenchmarkFig7_DSUBSIM_IC_Cores(b *testing.B) { benchCores(b, IC, true) }

// BenchmarkFig9_DIIMM_LT_Cores: DIIMM, LT, multi-core server.
func BenchmarkFig9_DIIMM_LT_Cores(b *testing.B) { benchCores(b, LT, false) }

// benchTCP runs DIIMM over real loopback sockets (the Figs. 5/8 shape).
func benchTCP(b *testing.B, model Model) {
	g := mustBenchGraph(b)
	const machines = 4
	for i := 0; i < b.N; i++ {
		conns := make([]cluster.Conn, machines)
		listeners := make([]interface{ Close() error }, 0, machines)
		for j := 0; j < machines; j++ {
			lis, err := newLoopbackWorker(g, model, cluster.DeriveSeed(1, j))
			if err != nil {
				b.Fatal(err)
			}
			listeners = append(listeners, lis.lis)
			conns[j] = lis.conn
		}
		cl, err := cluster.New(conns, g.NumNodes())
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.RunDIIMMOnCluster(g.NumNodes(), cl, benchOpts(machines, model, false))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Metrics.CriticalPath().Seconds(), "cluster-s")
		b.ReportMetric(float64(res.Metrics.BytesSent+res.Metrics.BytesReceived), "bytes")
		cl.Close()
		for _, l := range listeners {
			l.Close()
		}
	}
}

type loopbackWorker struct {
	lis  interface{ Close() error }
	conn cluster.Conn
}

func newLoopbackWorker(g *Graph, model Model, seed uint64) (loopbackWorker, error) {
	lis, conn, err := cluster.StartLoopbackWorker(cluster.WorkerConfig{Graph: g, Model: model, Seed: seed})
	if err != nil {
		return loopbackWorker{}, err
	}
	return loopbackWorker{lis: lis, conn: conn}, nil
}

// BenchmarkFig5_DIIMM_IC_Cluster: DIIMM, IC, TCP cluster of machines.
func BenchmarkFig5_DIIMM_IC_Cluster(b *testing.B) { benchTCP(b, IC) }

// BenchmarkFig8_DIIMM_LT_Cluster: DIIMM, LT, TCP cluster of machines.
func BenchmarkFig8_DIIMM_LT_Cluster(b *testing.B) { benchTCP(b, LT) }

// benchMCSystem builds the Fig. 10 neighbor-set instance once.
var benchMCSystem = sync.OnceValues(func() (*SetSystem, error) {
	g, err := benchGraph()
	if err != nil {
		return nil, err
	}
	return workload.NeighborSetSystem(g)
})

// BenchmarkFig10a_NewGreeDi_Time: NEWGREEDI max-coverage running time.
func BenchmarkFig10a_NewGreeDi_Time(b *testing.B) {
	sys, err := benchMCSystem()
	if err != nil {
		b.Fatal(err)
	}
	for _, machines := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("l=%d", machines), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.NewGreeDiMaxCoverage(sys, 50, machines)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Metrics.CriticalPath().Seconds(), "cluster-s")
			}
		})
	}
}

// BenchmarkFig10b_Speedup: the sequential greedy baseline that Fig. 10(b)
// speedups are measured against, and the GREEDI merge path.
func BenchmarkFig10b_Speedup(b *testing.B) {
	sys, err := benchMCSystem()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.SequentialGreedy(50); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("greedi-l=8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := coverage.GreeDi(sys, 50, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig10c_CoverageRatio reports GREEDI's coverage ratio against
// NEWGREEDI (a quality metric surfaced through the bench harness).
func BenchmarkFig10c_CoverageRatio(b *testing.B) {
	sys, err := benchMCSystem()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		ng, err := core.NewGreeDiMaxCoverage(sys, 50, 16)
		if err != nil {
			b.Fatal(err)
		}
		gd, err := coverage.GreeDi(sys, 50, 16)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(gd.Coverage)/float64(ng.Coverage), "ratio")
	}
}

// --- ablation benches (DESIGN.md "Key design choices") ----------------------

// BenchmarkAblationArenaVsSlices: arena-backed RR storage vs one slice
// per RR set (the design the arena replaces).
func BenchmarkAblationArenaVsSlices(b *testing.B) {
	g := mustBenchGraph(b)
	b.Run("arena", func(b *testing.B) {
		b.ReportAllocs()
		s, err := rrset.NewSampler(g, diffusion.IC, 1, false)
		if err != nil {
			b.Fatal(err)
		}
		c := rrset.NewCollection(1 << 20)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.SampleInto(c)
		}
	})
	b.Run("slices", func(b *testing.B) {
		b.ReportAllocs()
		s, err := rrset.NewSampler(g, diffusion.IC, 1, false)
		if err != nil {
			b.Fatal(err)
		}
		scratch := rrset.NewCollection(1 << 20)
		var sets [][]uint32
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.SampleInto(scratch)
			members := scratch.Set(scratch.Count() - 1)
			own := make([]uint32, len(members))
			copy(own, members)
			sets = append(sets, own)
		}
		_ = sets
	})
}

// BenchmarkAblationLazyVsNaive: the vector-D lazy-bucket greedy of
// Algorithm 1 vs the rescan-everything greedy.
func BenchmarkAblationLazyVsNaive(b *testing.B) {
	g := mustBenchGraph(b)
	s, err := rrset.NewSampler(g, diffusion.IC, 1, false)
	if err != nil {
		b.Fatal(err)
	}
	c := rrset.NewCollection(1 << 20)
	s.SampleManyInto(c, 20000)
	idx, err := rrset.BuildIndex(c, g.NumNodes())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("lazy-buckets", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o, err := coverage.NewLocalOracle(c, idx, g.NumNodes())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := coverage.RunGreedy(o, 50); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive-rescan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := coverage.NaiveGreedy(c, idx, g.NumNodes(), 50); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSubsetSampling: SUBSIM geometric-jump RR generation vs
// per-edge coin flips, on the weighted-cascade graph where both apply.
func BenchmarkAblationSubsetSampling(b *testing.B) {
	g := mustBenchGraph(b)
	for _, mode := range []struct {
		name   string
		subset bool
	}{{"per-edge-coins", false}, {"subset-sampling", true}} {
		b.Run(mode.name, func(b *testing.B) {
			s, err := rrset.NewSampler(g, diffusion.IC, 1, mode.subset)
			if err != nil {
				b.Fatal(err)
			}
			c := rrset.NewCollection(1 << 20)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.SampleInto(c)
			}
			b.ReportMetric(float64(c.EdgesExamined())/float64(c.Count()), "probes/set")
		})
	}
}

// BenchmarkAblationDeltaVsFullSync compares the wire size of the §III-C
// delta-compressed coverage sync against naively shipping the full
// n-entry degree vector every round.
func BenchmarkAblationDeltaVsFullSync(b *testing.B) {
	g := mustBenchGraph(b)
	n := g.NumNodes()
	s, err := rrset.NewSampler(g, diffusion.IC, 1, false)
	if err != nil {
		b.Fatal(err)
	}
	c := rrset.NewCollection(1 << 20)
	s.SampleManyInto(c, 5000)
	idx, err := rrset.BuildIndex(c, n)
	if err != nil {
		b.Fatal(err)
	}
	// Delta form: only nodes with non-zero coverage, 8 bytes each.
	touched := 0
	for v := 0; v < n; v++ {
		if idx.Degree(uint32(v)) > 0 {
			touched++
		}
	}
	deltaBytes := float64(8 * touched)
	fullBytes := float64(8 * n)
	for i := 0; i < b.N; i++ {
		b.ReportMetric(deltaBytes, "delta-bytes")
		b.ReportMetric(fullBytes, "full-bytes")
		b.ReportMetric(fullBytes/deltaBytes, "saving")
	}
}

// BenchmarkAblationGatherAllVsNewGreeDi quantifies §II-B's motivation:
// the naive gather-every-sample strategy versus NEWGREEDI's delta
// protocol, in selection traffic bytes on identical RR-set shards.
func BenchmarkAblationGatherAllVsNewGreeDi(b *testing.B) {
	g := mustBenchGraph(b)
	setup := func() *cluster.Cluster {
		cl, err := cluster.NewLocal(cluster.WorkerConfig{Graph: g, Model: IC, Seed: 5}, 4, g.NumNodes(), cluster.Recovery{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cl.Generate(20000); err != nil {
			b.Fatal(err)
		}
		return cl
	}
	b.Run("gather-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cl := setup()
			res, err := core.GatherAllSelect(g.NumNodes(), cl, 50)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.GatherBytes), "bytes")
			cl.Close()
		}
	})
	b.Run("newgreedi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cl := setup()
			before := cl.Metrics()
			if _, err := coverage.RunGreedy(cl.Oracle(), 50); err != nil {
				b.Fatal(err)
			}
			after := cl.Metrics()
			b.ReportMetric(float64(after.BytesSent-before.BytesSent+after.BytesReceived-before.BytesReceived), "bytes")
			cl.Close()
		}
	})
}

// BenchmarkDistributedEstimate measures the §II-B distributed
// Monte-Carlo influence-estimation service.
func BenchmarkDistributedEstimate(b *testing.B) {
	g := mustBenchGraph(b)
	cl, err := cluster.NewLocal(cluster.WorkerConfig{Graph: g, Model: IC, Seed: 7}, 4, g.NumNodes(), cluster.Recovery{})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	seeds := []uint32{0, 1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cl.EstimateSpread(seeds, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOPIMCvsIMM contrasts the adaptive OPIM-C stopping rule with
// IMM's worst-case sample count at the same (ε, δ).
func BenchmarkOPIMCvsIMM(b *testing.B) {
	g := mustBenchGraph(b)
	b.Run("diimm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.RunDIIMM(g, benchOpts(4, IC, false))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Theta), "RRsets")
		}
	})
	b.Run("dopimc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.RunDOPIMC(g, benchOpts(4, IC, false))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(2*res.Theta), "RRsets")
		}
	})
}

// BenchmarkAblationEpsilonSweep shows the ε⁻² scaling of the sample count
// (and hence runtime) that the λ* formula implies — the reason the
// harness defaults to a looser ε than the paper's 0.01 on small boxes.
func BenchmarkAblationEpsilonSweep(b *testing.B) {
	g := mustBenchGraph(b)
	for _, eps := range []float64{0.5, 0.35, 0.25} {
		b.Run(fmt.Sprintf("eps=%.2f", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := benchOpts(4, IC, false)
				opt.Eps = eps
				res, err := core.RunDIIMM(g, opt)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Theta), "RRsets")
			}
		})
	}
}

// BenchmarkRRGenerationLTvsIC quantifies the LT-faster-than-IC claim the
// paper makes about Figs. 8/9 vs 5/6.
func BenchmarkRRGenerationLTvsIC(b *testing.B) {
	g := mustBenchGraph(b)
	for _, model := range []Model{IC, LT} {
		b.Run(model.String(), func(b *testing.B) {
			s, err := rrset.NewSampler(g, model, 1, false)
			if err != nil {
				b.Fatal(err)
			}
			c := rrset.NewCollection(1 << 20)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.SampleInto(c)
			}
		})
	}
}
