// Command dimmd runs one DIIMM worker as a standalone process, serving
// the cluster protocol over TCP. It is the multi-process / multi-host
// deployment path: start one dimmd per machine, then point cmd/dimm (or
// any program using the library's cluster package) at the addresses.
//
//	# on each worker machine (all must load the same graph, a .dsg made
//	# by gengraph):
//	dimmd -graph g.dsg -listen :7001 -model ic -seed-index 0
//	dimmd -graph g.dsg -listen :7002 -model ic -seed-index 1
//
//	# on the master:
//	dimm -graph g.dsg -workers host1:7001,host2:7002
//
// The -seed-index must be distinct per worker: worker i samples the RNG
// stream derived from (-seed, i), which is what makes a distributed run
// reproduce the equivalent single-process run bit for bit. -parallelism
// (the per-worker shard count, GOMAXPROCS by default) and -batch only
// change speed: each worker may use its own.
//
// Restart contract: every accepted connection gets a brand-new empty
// worker, so a bounced dimmd rejoins with no state of its own. Masters
// running the fault-tolerance layer (dimm/dimmsrv -retries) rely on
// exactly that: on reconnect they replay the worker's journaled request
// history, which — because the worker's streams are a pure function of
// (-seed, -seed-index) — rebuilds its RR collection bit for bit. Restart
// dimmd with the flags it was started with, except -parallelism and
// -batch, which may change; otherwise the replayed state (and the run's
// reproducibility) is silently wrong.
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"dimm/internal/cluster"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dimmd: ")

	var (
		graphPath   = flag.String("graph", "", "segmented (.dsg) graph file, or a text edge list")
		backendName = flag.String("graph-backend", "mem", "graph materialization: mem (heap) | mmap (demand-paged, .dsg files only; incompatible with -dynamic)")
		undirected  = flag.Bool("undirected", false, "treat the edge list as undirected")
		weights     = flag.String("weights", "wc", "edge weight model: wc|uniform|trivalency|file")
		uniformP    = flag.Float64("uniform-p", 0.1, "probability for -weights uniform")
		listen      = flag.String("listen", ":7001", "address to serve the worker protocol on")
		modelName   = flag.String("model", "ic", "diffusion model: ic|lt")
		subset      = flag.Bool("subsim", false, "use SUBSIM subset sampling")
		parallelism = flag.Int("parallelism", 0, "RR-generation goroutines for this worker (0 = auto: GOMAXPROCS, 1 = sequential; never changes sampled sets, safe to vary per worker)")
		batch       = flag.Int("batch", 0, "frontier-batch width of each sampling shard (0 = auto, 1 = scalar kernel; never changes sampled sets, safe to vary per worker)")
		seed        = flag.Uint64("seed", 1, "base random seed (same on every worker)")
		seedIndex   = flag.Int("seed-index", 0, "this worker's machine index (distinct per worker)")
		dynamic     = flag.Bool("dynamic", false, "enable streaming graph updates: the master's POST /v1/update batches mutate this worker's graph copy and repair its RR sets in place (set on every worker of a dynamic deployment)")
		grace       = flag.Duration("shutdown-grace", 5*time.Second, "on SIGINT/SIGTERM, wait this long for the connected master to go idle before closing")
	)
	flag.Parse()

	if *graphPath == "" {
		log.Fatal("missing -graph (the worker needs its own copy of the graph)")
	}
	model, err := diffusion.ParseModel(*modelName)
	if err != nil {
		log.Fatal(err)
	}
	backend, err := graph.ParseBackend(*backendName)
	if err != nil {
		log.Fatal(err)
	}
	g, err := graph.LoadAny(*graphPath, graph.LoadOptions{
		Undirected: *undirected, Weights: *weights, UniformP: float32(*uniformP), Seed: *seed, Backend: backend,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer g.Close() // Serve returns once no worker runs

	if *dynamic {
		// Must happen before any worker (and its samplers) is built: the
		// samplers pick mutation-safe kernels on mutable graphs. An
		// mmap-backed graph is rejected here (updates write through CSR
		// slots in place, which a shared read-only mapping cannot allow).
		if err := g.EnableMutation(); err != nil {
			log.Fatalf("-dynamic: %v", err)
		}
	}

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	par := *parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0) // this process is one machine: use its cores
	}
	log.Printf("worker %d serving %d nodes / %d edges on %s (%v model, parallelism %d)",
		*seedIndex, g.NumNodes(), g.NumEdges(), lis.Addr(), model, par)
	cfg := cluster.WorkerConfig{
		Graph:       g,
		Model:       model,
		Subset:      *subset,
		Seed:        cluster.DeriveSeed(*seed, *seedIndex),
		Parallelism: par,
		Batch:       *batch,
	}
	srv := cluster.NewWorkerServer(lis, func() (*cluster.Worker, error) {
		return cluster.NewWorker(cfg)
	})

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting masters, let an
	// in-flight request finish and its response flush, then exit 0 so a
	// worker leaving the cluster never dies mid-frame.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("received %v, draining (grace %v)", s, *grace)
		if err := srv.Shutdown(*grace); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	if err := srv.Serve(); err != nil {
		log.Fatal(err)
	}
	log.Printf("worker %d stopped", *seedIndex)
}
