package cluster

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dimm/internal/coverage"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
)

// connPlan scripts how a loopback worker treats one accepted connection.
type connPlan struct {
	refuse    bool          // close the connection as soon as it is accepted
	stallAt   int           // 1-based request whose reply is held back (0: none)
	stall     time.Duration // how long the stallAt'th reply is held back
	dropAfter int           // close the connection after this many replies (0: never)
}

// scriptedWorker serves cfg's worker protocol on a loopback port,
// treating the conn'th accepted connection (from 0) as plan(conn) says.
// Like Serve, it builds a fresh worker per connection. It returns the
// address and the number of connections accepted so far.
func scriptedWorker(t *testing.T, cfg WorkerConfig, plan func(conn int) connPlan) (string, *atomic.Int64) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	var accepted atomic.Int64
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			p := plan(int(accepted.Add(1) - 1))
			if p.refuse {
				nc.Close()
				continue
			}
			go func() {
				defer nc.Close()
				w, err := NewWorker(cfg)
				if err != nil {
					return
				}
				defer w.release()
				for n := 1; p.dropAfter == 0 || n <= p.dropAfter; n++ {
					req, err := readFrame(nc, maxFrameSize)
					if err != nil {
						return
					}
					resp := w.Handle(req)
					if n == p.stallAt {
						time.Sleep(p.stall)
					}
					if err := writeFrame(nc, resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	return lis.Addr().String(), &accepted
}

// healthy serves every connection normally.
func healthy(int) connPlan { return connPlan{} }

// tcpPath runs two generate rounds with mid between them, then a greedy
// selection, and returns the seeds and coverage.
func tcpPath(t *testing.T, cl *Cluster, mid func()) ([]uint32, int64) {
	t.Helper()
	if _, err := cl.Generate(200); err != nil {
		t.Fatal(err)
	}
	mid()
	if _, err := cl.Generate(150); err != nil {
		t.Fatal(err)
	}
	res, err := coverage.RunGreedy(cl.Oracle(), 6)
	if err != nil {
		t.Fatal(err)
	}
	return res.Seeds, res.Coverage
}

func sameRun(t *testing.T, seeds []uint32, cov int64, wantSeeds []uint32, wantCov int64) {
	t.Helper()
	if cov != wantCov {
		t.Fatalf("coverage %d != fault-free %d", cov, wantCov)
	}
	for i := range wantSeeds {
		if seeds[i] != wantSeeds[i] {
			t.Fatalf("seeds diverged at %d: %v vs %v", i, seeds, wantSeeds)
		}
	}
}

func workerCfg(g *graph.Graph, seed uint64, i int) WorkerConfig {
	return WorkerConfig{Graph: g, Model: diffusion.IC, Seed: DeriveSeed(seed, i)}
}

func dialTest(t *testing.T, addrs []string, n int, callTimeout time.Duration, retries int) *Cluster {
	t.Helper()
	cl, err := DialCluster(addrs, n, callTimeout, Recovery{Retries: retries, Backoff: time.Millisecond, Salt: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestDialClusterRedialsPastTimeout: a worker that overruns the call
// timeout once is redialed, rebuilt from the journal and re-asked, and
// the run's seeds and coverage equal the fault-free run's.
func TestDialClusterRedialsPastTimeout(t *testing.T) {
	g := testGraph(t)
	const machines, victim, seed = 2, 1, 41
	wantSeeds, wantCov := tcpPath(t, localCluster(t, g, machines, diffusion.IC, seed), func() {})

	addrs := make([]string, machines)
	var victimConns *atomic.Int64
	for i := range addrs {
		plan := healthy
		if i == victim {
			// The third request (the second round's generate) stalls.
			plan = func(conn int) connPlan {
				if conn == 0 {
					return connPlan{stallAt: 3, stall: time.Second}
				}
				return connPlan{}
			}
		}
		var accepted *atomic.Int64
		addrs[i], accepted = scriptedWorker(t, workerCfg(g, seed, i), plan)
		if i == victim {
			victimConns = accepted
		}
	}
	cl := dialTest(t, addrs, g.NumNodes(), 300*time.Millisecond, 3)
	seeds, cov := tcpPath(t, cl, func() {})
	sameRun(t, seeds, cov, wantSeeds, wantCov)
	if got := victimConns.Load(); got != 2 {
		t.Fatalf("victim accepted %d connections, want 2 (one redial)", got)
	}
	if h := cl.Health()[victim]; !h.Up || h.Failovers != 1 || h.Retries != 1 {
		t.Fatalf("victim health %+v, want up after one failover", h)
	}
}

// TestDialClusterSurvivesBounce: a dimmd-style bounce mid-run (the
// listener closed with its session, then served again on the same
// address) leaves seeds and coverage byte-identical to the fault-free
// run.
func TestDialClusterSurvivesBounce(t *testing.T) {
	g := testGraph(t)
	const machines, victim, seed = 3, 0, 43
	wantSeeds, wantCov := tcpPath(t, localCluster(t, g, machines, diffusion.IC, seed), func() {})

	serve := func(lis net.Listener, cfg WorkerConfig) *WorkerServer {
		srv := NewWorkerServer(lis, func() (*Worker, error) { return NewWorker(cfg) })
		go srv.Serve()
		t.Cleanup(func() { srv.Shutdown(0) })
		return srv
	}
	addrs := make([]string, machines)
	var bounced *WorkerServer
	for i := range addrs {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = lis.Addr().String()
		srv := serve(lis, workerCfg(g, seed, i))
		if i == victim {
			bounced = srv
		}
	}
	cl := dialTest(t, addrs, g.NumNodes(), 0, 3)
	seeds, cov := tcpPath(t, cl, func() {
		bounced.Shutdown(0)
		lis, err := net.Listen("tcp", addrs[victim])
		if err != nil {
			t.Fatal(err)
		}
		serve(lis, workerCfg(g, seed, victim))
	})
	sameRun(t, seeds, cov, wantSeeds, wantCov)
	if h := cl.Health()[victim]; !h.Up || h.Failovers != 1 {
		t.Fatalf("bounced worker health %+v, want up after one failover", h)
	}
}

// TestDialClusterRetriesExactly: with Retries R and every later
// connection closed on accept, a failed worker costs exactly R dials
// before it is quarantined, and its share is regenerated on the
// survivor.
func TestDialClusterRetriesExactly(t *testing.T) {
	g := testGraph(t)
	const retries, seed = 3, 47
	survivor, _ := scriptedWorker(t, workerCfg(g, seed, 0), healthy)
	victim, accepted := scriptedWorker(t, workerCfg(g, seed, 1), func(conn int) connPlan {
		if conn == 0 {
			return connPlan{dropAfter: 1} // answers the generate, drops the degree sync
		}
		return connPlan{refuse: true}
	})
	cl := dialTest(t, []string{survivor, victim}, g.NumNodes(), 10*time.Second, retries)
	stats, err := cl.Generate(300)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Count != 300 {
		t.Fatalf("sample holds %d RR sets after rebalance, want 300", stats.Count)
	}
	if dials := accepted.Load() - 1; dials != retries {
		t.Fatalf("%d redials before quarantine, want exactly %d", dials, retries)
	}
	if h := cl.Health()[1]; h.Up || h.Retries != retries || h.Failovers != 0 {
		t.Fatalf("victim health %+v, want quarantined after %d attempts", h, retries)
	}
}

// TestDialClusterResetAcrossDroppedConn: Reset on a conn the worker
// dropped succeeds through failover, and the run after it equals a
// fault-free twin's: a reset keeps every worker's stream position, and
// the replacement is positioned where its predecessor's stream stood.
func TestDialClusterResetAcrossDroppedConn(t *testing.T) {
	g := testGraph(t)
	const machines, victim, seed = 2, 0, 53
	run := func(plan func(i int) func(conn int) connPlan) ([]uint32, int64, *Cluster) {
		addrs := make([]string, machines)
		for i := range addrs {
			addrs[i], _ = scriptedWorker(t, workerCfg(g, seed, i), plan(i))
		}
		cl := dialTest(t, addrs, g.NumNodes(), 0, 3)
		if _, err := cl.Generate(100); err != nil {
			t.Fatal(err)
		}
		if err := cl.Reset(); err != nil {
			t.Fatalf("reset: %v", err)
		}
		stats, err := cl.Generate(300)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Count != 300 {
			t.Fatalf("sample holds %d RR sets after the reset, want 300", stats.Count)
		}
		res, err := coverage.RunGreedy(cl.Oracle(), 6)
		if err != nil {
			t.Fatal(err)
		}
		recount, err := cl.CoverageOf(res.Seeds)
		if err != nil {
			t.Fatal(err)
		}
		if recount != res.Coverage {
			t.Fatalf("recount %d != greedy coverage %d", recount, res.Coverage)
		}
		return res.Seeds, res.Coverage, cl
	}
	wantSeeds, wantCov, _ := run(func(int) func(int) connPlan { return healthy })
	seeds, cov, cl := run(func(i int) func(int) connPlan {
		if i != victim {
			return healthy
		}
		return func(conn int) connPlan {
			if conn == 0 {
				return connPlan{dropAfter: 2} // a generate round, then gone
			}
			return connPlan{}
		}
	})
	if h := cl.Health()[victim]; !h.Up || h.Failovers != 1 {
		t.Fatalf("victim health %+v, want up after one failover", h)
	}
	sameRun(t, seeds, cov, wantSeeds, wantCov)
}
