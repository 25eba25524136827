package main

import (
	"runtime"
	"time"

	"dimm/internal/core"
	"dimm/internal/coverage"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/imm"
	"dimm/internal/rrset"
	"dimm/internal/sketch"
)

// Isolated probes: each calls one layer directly on the workload's
// graph or sample, after the measuring window of a traced run.

// probeGeneration draws sets RR sets with one scalar-parallel shard at
// the default batch width, the configuration every worker runs. When
// lanes is non-nil it also receives the lane seed of every set, which
// the repair planner needs.
func probeGeneration(e *env, g *graph.Graph, model diffusion.Model, sets int, lanes *[]uint64) (*rrset.Collection, error) {
	sampler, err := rrset.NewShardedSamplerBatch(g, model, e.cfg.seed^0x9e37, false, 1, 0)
	if err != nil {
		return nil, err
	}
	coll := rrset.NewCollection(sets)
	if lanes != nil {
		*lanes = sampler.AppendLaneSeeds(*lanes, int64(sets))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	sampler.SampleManyInto(coll, int64(sets))
	el := time.Since(start)
	runtime.ReadMemStats(&after)
	probes := coll.EdgesExamined()
	e.out.set("rrset.gen_sets_per_s", float64(sets)/el.Seconds(), sets)
	if probes > 0 {
		e.out.set("rrset.gen_ns_per_probe", float64(el.Nanoseconds())/float64(probes), sets)
	}
	e.out.set("rrset.gen_edge_probes", float64(probes), sets)
	e.out.set("rrset.avg_set_size", coll.AvgSize(), sets)
	e.out.set("rrset.gen_alloc_bytes_per_set", float64(after.TotalAlloc-before.TotalAlloc)/float64(sets), sets)
	return coll, nil
}

// probeSample measures the layers that work on a finished sample: index
// build, wire codec, selection, certification and the sketch tier.
func probeSample(e *env, coll *rrset.Collection, n, k int) (*rrset.Index, error) {
	start := time.Now()
	idx, err := rrset.BuildIndex(coll, n)
	if err != nil {
		return nil, err
	}
	e.out.set("rrset.index_build_s", time.Since(start).Seconds(), 1)
	e.out.set("rrset.index_entries", float64(coll.TotalSize()), 1)
	// Arena and postings are 4 bytes a member, set offsets and the index
	// segment's node starts 8 bytes an entry.
	e.out.set("rrset.resident_bytes", float64(8*coll.TotalSize()+8*int64(coll.Count()+1)+8*int64(n+1)), 1)

	start = time.Now()
	wire := coll.AppendWire(nil)
	enc := time.Since(start)
	back := rrset.NewCollection(coll.Count())
	start = time.Now()
	if _, _, err := rrset.DecodeWire(wire, back); err != nil {
		return nil, err
	}
	dec := time.Since(start)
	mb := float64(len(wire)) / 1e6
	e.out.set("rrset.wire_encode_mb_per_s", mb/enc.Seconds(), 1)
	e.out.set("rrset.wire_decode_mb_per_s", mb/dec.Seconds(), 1)

	// core.SelectFromSample's own steps, through the counting oracle.
	oracle, err := coverage.NewLocalOracle(coll, idx, n)
	if err != nil {
		return nil, err
	}
	counting := &spanOracle{inner: oracle}
	start = time.Now()
	sel, err := coverage.RunGreedy(counting, k)
	if err != nil {
		return nil, err
	}
	e.out.set("coverage.select_s", time.Since(start).Seconds(), 1)
	e.out.set("coverage.delta_pairs", float64(counting.pairs), 1)
	e.out.set("coverage.covered_sets", float64(sel.Coverage), 1)

	const certReps = 2000
	theta := int64(coll.Count())
	start = time.Now()
	var sink float64
	for r := 0; r < certReps; r++ {
		var cov int64
		for i := 0; i < k; i++ {
			cov += sel.Marginals[i]
			sink += imm.CertifyOPIM(n, theta, cov, cov, 30).Ratio
		}
	}
	e.out.set("imm.certify_us", float64(time.Since(start).Microseconds())/certReps, certReps)
	_ = sink

	sk, err := sketch.New(n, sketch.Params{K: core.DefaultSketchK, Seed: serviceSeed})
	if err != nil {
		return nil, err
	}
	start = time.Now()
	core.BuildSketch(sk, coll.Snapshot(), 1)
	e.out.set("sketch.build_s", time.Since(start).Seconds(), 1)
	e.out.set("sketch.bytes", float64(sk.EncodedSize()), 1)
	const estReps = 2000
	start = time.Now()
	for r := 0; r < estReps; r++ {
		est, _ := sk.EstimateSpreadSet(sel.Seeds)
		sink += est
	}
	e.out.set("sketch.estimate_us", float64(time.Since(start).Microseconds())/estReps, estReps)
	return idx, nil
}

// diimmLayers turns the traced repetitions' spans and cluster snapshots
// into the per-layer metrics of a DIIMM workload, then runs the probes
// on the final-θ sample gathered from the last run's workers.
func diimmLayers(e *env, w diimmWorkload, g *graph.Graph, runs []*diimmRun, last *testCluster) error {
	var traced, plain []*diimmRun
	for _, r := range runs {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	sum := summarize(e.tr.finish())
	nt := float64(len(traced))
	perRun := func(name string, ns int64) { e.out.set(name, float64(ns)/1e9/nt, len(traced)) }
	perRun("cluster.generate_s", sum.total[spanGenerate])
	perRun("cluster.oracle_initial_degrees_s", sum.total[spanInitDeg])
	perRun("cluster.oracle_select_s", sum.total[spanSelect])
	perRun("coverage.master_reduce_s", sum.self[spanGreedy])
	perRun("core.run_s", sum.total[spanRun])
	cover := 1.0
	for _, r := range traced {
		if c := sum.childCover[r.rootID]; c < cover {
			cover = c
		}
	}
	e.out.set("core.child_coverage", cover, len(traced))

	med := func(name string, f func(r *diimmRun) float64) {
		var xs []float64
		for _, r := range traced {
			xs = append(xs, f(r))
		}
		e.out.set(name, median(xs), len(xs))
	}
	med("core.cpu_s", func(r *diimmRun) float64 { return r.cpu.Seconds() })
	med("cluster.gen_critical_s", func(r *diimmRun) float64 { return r.metrics.GenCritical.Seconds() })
	med("cluster.gen_total_s", func(r *diimmRun) float64 { return r.metrics.GenTotal.Seconds() })
	med("cluster.sel_critical_s", func(r *diimmRun) float64 { return r.metrics.SelCritical.Seconds() })
	med("cluster.master_compute_s", func(r *diimmRun) float64 { return r.metrics.MasterCompute.Seconds() })
	med("cluster.comm_s", func(r *diimmRun) float64 { return r.metrics.Comm.Seconds() })
	med("cluster.rpc_wall_s", func(r *diimmRun) float64 { return r.rpcWall.Seconds() })
	med("cluster.rpc_calls", func(r *diimmRun) float64 { return float64(r.rpcs) })
	med("cluster.rpc_failed", func(r *diimmRun) float64 { return float64(r.rpcFail) })
	med("cluster.rounds", func(r *diimmRun) float64 { return float64(r.metrics.Rounds) })
	med("cluster.bytes_sent", func(r *diimmRun) float64 { return float64(r.metrics.BytesSent) })
	med("cluster.bytes_recv", func(r *diimmRun) float64 { return float64(r.metrics.BytesReceived) })
	med("cluster.delta_bytes", func(r *diimmRun) float64 { return float64(r.metrics.DeltaBytes) })
	med("imm.rounds", func(r *diimmRun) float64 { return float64(r.res.Rounds) })
	med("imm.theta", func(r *diimmRun) float64 { return float64(r.res.Theta) })
	e.out.set("graph.csr_bytes", float64(g.CSRBytes()), 1)

	if len(plain) > 0 {
		// Runs repeat the same work, so noise only adds: the fastest run
		// of each kind is the steadiest estimate of its cost.
		fastest := func(rs []*diimmRun) float64 {
			best := rs[0].wall.Seconds()
			for _, r := range rs[1:] {
				best = min(best, r.wall.Seconds())
			}
			return best
		}
		e.out.set("bench.trace_overhead", fastest(traced)/fastest(plain)-1, len(runs))
	}
	share := func(ns int64) float64 { return 100 * float64(ns) / float64(sum.total[spanRun]) }
	logf("budget of one run: generate %.1f%%  greedy %.1f%% (master reduce %.1f%%, oracle select %.1f%%, initial degrees %.1f%%)  rpc wall %.1f%%  named children cover %.1f%%",
		share(sum.total[spanGenerate]), share(sum.total[spanGreedy]), share(sum.self[spanGreedy]),
		share(sum.total[spanSelect]), share(sum.total[spanInitDeg]), share(sum.total[spanRPC])/machines, 100*cover)

	if _, err := probeGeneration(e, g, w.model, e.sc.ProbeSets, nil); err != nil {
		return err
	}
	coll, err := last.GatherAll()
	if err != nil {
		return err
	}
	_, err = probeSample(e, coll, g.NumNodes(), w.k)
	return err
}
