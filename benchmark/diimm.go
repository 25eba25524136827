package main

import (
	"fmt"
	"math"
	"net"
	"slices"
	"sync/atomic"
	"time"

	"dimm/internal/cluster"
	"dimm/internal/coverage"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/imm"
	"dimm/internal/rss"
)

// timedConn wraps a worker connection from outside the cluster package:
// it counts calls and failures, sums call wall time, and records one
// leaf span per call.
type timedConn struct {
	inner  cluster.Conn
	tr     *tracer
	calls  atomic.Int64
	failed atomic.Int64
	wallNS atomic.Int64
}

func (c *timedConn) Call(req []byte) ([]byte, error) {
	sp := c.tr.begin(spanRPC, 0)
	start := time.Now()
	resp, err := c.inner.Call(req)
	c.wallNS.Add(time.Since(start).Nanoseconds())
	sp.end()
	c.calls.Add(1)
	if err != nil {
		c.failed.Add(1)
	}
	return resp, err
}

func (c *timedConn) Bytes() (int64, int64) { return c.inner.Bytes() }
func (c *timedConn) Close() error          { return c.inner.Close() }

// testCluster is a cluster the benchmark built itself, so every
// connection is a timedConn.
type testCluster struct {
	*cluster.Cluster
	conns     []*timedConn
	listeners []net.Listener
}

// close stops every worker connection and listener; it also serves a
// cluster that was only partly built.
func (tc *testCluster) close() {
	for _, c := range tc.conns {
		_ = c.Close()
	}
	for _, l := range tc.listeners {
		_ = l.Close()
	}
}

func (tc *testCluster) rpcTotals() (calls, failed int64, wall time.Duration) {
	for _, c := range tc.conns {
		calls += c.calls.Load()
		failed += c.failed.Load()
		wall += time.Duration(c.wallNS.Load())
	}
	return calls, failed, wall
}

// buildCluster starts ℓ workers sampling independent streams derived
// from seed, in-process or behind TCP loopback, and wraps each
// connection. shape adds a fixed delay to every RPC (the
// gate-must-gate check of README.md), 0 adds none.
func buildCluster(g *graph.Graph, model diffusion.Model, tcp bool, seed uint64, tr *tracer, shape time.Duration) (*testCluster, error) {
	tc := &testCluster{}
	conns := make([]cluster.Conn, machines)
	for i := range conns {
		cfg := cluster.WorkerConfig{Graph: g, Model: model, Seed: cluster.DeriveSeed(seed, i), Parallelism: 1}
		var conn cluster.Conn
		if tcp {
			lis, c, err := cluster.StartLoopbackWorker(cfg)
			if err != nil {
				tc.close()
				return nil, fmt.Errorf("starting loopback worker %d: %w", i, err)
			}
			tc.listeners = append(tc.listeners, lis)
			conn = c
		} else {
			w, err := cluster.NewWorker(cfg)
			if err != nil {
				tc.close()
				return nil, fmt.Errorf("starting worker %d: %w", i, err)
			}
			conn = cluster.NewLocalConn(w)
		}
		if shape > 0 {
			conn = cluster.Shape(conn, shape, 0)
		}
		t := &timedConn{inner: conn, tr: tr}
		tc.conns = append(tc.conns, t)
		conns[i] = t
	}
	cl, err := cluster.New(conns, g.NumNodes())
	if err != nil {
		tc.close()
		return nil, err
	}
	tc.Cluster = cl
	return tc, nil
}

// engine is the benchmark's own imm.Engine over a cluster: the same
// substitution core.RunDIIMM makes, with a span at every call into the
// cluster and the greedy.
type engine struct {
	cl    *cluster.Cluster
	tr    *tracer
	root  int64
	count int64
}

func (e *engine) Generate(target int64) error {
	add := target - e.count
	if add <= 0 {
		return nil
	}
	sp := e.tr.begin(spanGenerate, e.root)
	stats, err := e.cl.Generate(add)
	sp.end()
	if err != nil {
		return err
	}
	e.count = stats.Count
	return nil
}

func (e *engine) Count() int64 { return e.count }

func (e *engine) SelectK(k int) (*coverage.Result, error) {
	sp := e.tr.begin(spanGreedy, e.root)
	defer sp.end()
	return coverage.RunGreedy(&spanOracle{inner: e.cl.Oracle(), tr: e.tr, parent: sp.id}, k)
}

// spanOracle passes a coverage.Oracle through, timing both calls and
// counting the delta pairs the greedy receives.
type spanOracle struct {
	inner  coverage.Oracle
	tr     *tracer
	parent int64
	pairs  int64
}

func (o *spanOracle) NumItems() int { return o.inner.NumItems() }

func (o *spanOracle) InitialDegrees() ([]int64, error) {
	sp := o.tr.begin(spanInitDeg, o.parent)
	defer sp.end()
	return o.inner.InitialDegrees()
}

func (o *spanOracle) Select(u uint32) ([]coverage.Delta, error) {
	sp := o.tr.begin(spanSelect, o.parent)
	deltas, err := o.inner.Select(u)
	sp.end()
	o.pairs += int64(len(deltas))
	return deltas, err
}

// diimmRun is one complete DIIMM run: cluster reset to seeds returned.
type diimmRun struct {
	res     *imm.Result
	metrics cluster.Metrics
	wall    time.Duration
	cpu     time.Duration
	rootID  int64
	traced  bool
	rpcs    int64
	rpcFail int64
	rpcWall time.Duration
}

func runDIIMMOnce(tc *testCluster, params imm.Params, tr *tracer) (*diimmRun, error) {
	run := &diimmRun{traced: tr.enabled()}
	cpu0 := cpuTime()
	root := tr.begin(spanRun, 0)
	start := time.Now()
	sp := tr.begin(spanReset, root.id)
	err := tc.Reset()
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("resetting cluster: %w", err)
	}
	res, err := imm.Run(&engine{cl: tc.Cluster, tr: tr, root: root.id}, params)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(spanStats, root.id)
	_, err = tc.Stats()
	sp.end()
	if err != nil {
		return nil, err
	}
	run.wall = time.Since(start)
	root.end()
	run.cpu = cpuTime() - cpu0
	run.res, run.metrics, run.rootID = res, tc.Metrics(), root.id
	run.rpcs, run.rpcFail, run.rpcWall = tc.rpcTotals()
	return run, nil
}

// checkDIIMM validates one run's answer against the graph and the
// forward-simulated spread; it returns one line per failed check.
func checkDIIMM(res *imm.Result, params imm.Params, n int, mcMean, mcStderr float64) []string {
	var bad []string
	if len(res.Seeds) != params.K {
		bad = append(bad, fmt.Sprintf("%d seeds returned, want k=%d", len(res.Seeds), params.K))
	}
	seen := make(map[uint32]bool, len(res.Seeds))
	for _, u := range res.Seeds {
		if int(u) >= n {
			bad = append(bad, fmt.Sprintf("seed %d outside the %d-node graph", u, n))
		}
		if seen[u] {
			bad = append(bad, fmt.Sprintf("seed %d returned twice", u))
		}
		seen[u] = true
	}
	if need := params.FinalTheta(res.LowerBound); res.Theta < need {
		bad = append(bad, fmt.Sprintf("theta %d below the IMM bound %d", res.Theta, need))
	}
	// The greedy picks the seeds that look best on this very sample, so
	// its estimate runs high by a share that grows with ε; 3 % covers
	// ε ≤ 0.1 and ε/5 the looser settings.
	if tol := 4*mcStderr + max(0.03, params.Eps/5)*mcMean; math.Abs(res.EstSpread-mcMean) > tol {
		bad = append(bad, fmt.Sprintf("estimated spread %.1f differs from simulated %.1f by more than %.1f", res.EstSpread, mcMean, tol))
	}
	return bad
}

// diimmWorkload describes one of the two DIIMM workloads.
type diimmWorkload struct {
	model diffusion.Model
	tcp   bool
	k     int
	eps   float64
}

// runDIIMM measures an analyst's DIIMM run: set-up (graph open plus
// cluster construction), one light warm-up, then complete runs on fresh
// clusters until the window closes. In a traced run every second
// repetition records spans and the others do not, which gives the
// tracing overhead from inside one process.
func runDIIMM(e *env, w diimmWorkload) error {
	sc := e.sc
	path, err := prepGraph(e.cfg.cacheDir, sc.NodesBig)
	if err != nil {
		return err
	}
	base := e.cfg.seed

	// Set-up, several times: from "inputs on disk" to "cluster ready".
	var g *graph.Graph
	var setups, opens []float64
	for i := 0; i < sc.SetupReps; i++ {
		g = nil
		start := time.Now()
		sp := e.tr.begin(spanGraphOpen, 0)
		g, err = openGraph(path)
		sp.end()
		if err != nil {
			return err
		}
		opens = append(opens, time.Since(start).Seconds())
		tc, err := buildCluster(g, w.model, w.tcp, base, e.tr, e.cfg.shapeRPC)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		tc.close()
	}
	n := g.NumNodes()
	params, err := imm.ComputeParams(n, w.k, w.eps, 1/float64(n))
	if err != nil {
		return err
	}

	one := func(p imm.Params) (*diimmRun, *testCluster, error) {
		tc, err := buildCluster(g, w.model, w.tcp, base, e.tr, e.cfg.shapeRPC)
		if err != nil {
			return nil, nil, err
		}
		run, err := runDIIMMOnce(tc, p, e.tr)
		if err != nil {
			tc.close()
			return nil, nil, err
		}
		return run, tc, nil
	}

	// Warm-up: a looser ε touches the same code, pages and heap at a
	// fraction of the cost; untimed.
	traced := e.tr.enabled()
	e.tr.on.Store(false)
	warmParams, err := imm.ComputeParams(n, w.k, 0.5, 1/float64(n))
	if err != nil {
		return err
	}
	_, warm, err := one(warmParams)
	if err != nil {
		return fmt.Errorf("warm-up run: %w", err)
	}
	warm.close()

	var runs []*diimmRun
	var last *testCluster // kept for the layer probes of a traced run
	attempted, failed := 0, 0
	window := time.Now()
	for rep := 0; rep < sc.MaxRuns; rep++ {
		// Stop once another run of typical length would end outside the
		// window.
		if rep >= sc.MinRuns && time.Since(window).Seconds()*float64(rep+1)/float64(rep) > e.cfg.seconds {
			break
		}
		if last != nil {
			last.close()
			last = nil
		}
		e.tr.rep.Store(int64(rep))
		e.tr.on.Store(traced && rep%2 == 0)
		run, tc, err := one(params)
		attempted++
		if err != nil {
			failed++
			e.out.problem("run %d: %v", rep, err)
			continue
		}
		if traced {
			last = tc
		} else {
			tc.close()
		}
		runs = append(runs, run)
	}
	e.tr.on.Store(false)
	if last != nil {
		defer last.close()
	}
	peak := rss.Peak()
	if len(runs) == 0 {
		return fmt.Errorf("no DIIMM run completed")
	}

	// Output checks, untimed.
	first := runs[0].res
	sim := diffusion.NewSimulator(g, mcSeed)
	mcMean, mcStderr := sim.Estimate(first.Seeds, w.model, sc.MCRounds)
	for i, run := range runs {
		bad := checkDIIMM(run.res, params, n, mcMean, mcStderr)
		if !slices.Equal(run.res.Seeds, first.Seeds) || run.res.Theta != first.Theta {
			bad = append(bad, "seed set or theta differs from the first repetition of the same seed")
		}
		if len(bad) > 0 {
			failed++
			for _, b := range bad {
				e.out.problem("run %d: %s", i, b)
			}
		}
	}
	e.out.phase("diimm runs", attempted, attempted-failed, failed, 0)

	var walls []float64
	var wire []float64
	for _, run := range runs {
		walls = append(walls, millis(run.wall))
		wire = append(wire, float64(run.metrics.BytesSent+run.metrics.BytesReceived))
	}
	e.out.set("setup_s", median(setups), len(setups))
	e.out.set("p50_ms", median(walls), len(walls))
	e.out.set("qps", float64(len(walls))/(sum(walls)/1e3), len(walls))
	e.out.set("wire_bytes", median(wire), len(wire))
	e.out.set("spread_nodes", mcMean, sc.MCRounds)
	e.out.set("peak_rss_mb", float64(peak)/(1<<20), 1)
	logf("diimm: %d runs, wall min %.3fs median %.3fs max %.3fs, theta %d, imm rounds %d, est spread %.0f vs simulated %.0f±%.0f",
		len(walls), slices.Min(walls)/1e3, median(walls)/1e3, slices.Max(walls)/1e3, first.Theta, first.Rounds, first.EstSpread, mcMean, mcStderr)

	if traced {
		e.out.set("graph.open_s", median(opens), len(opens))
		return diimmLayers(e, w, g, runs, last)
	}
	return nil
}
