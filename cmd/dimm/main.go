// Command dimm runs distributed influence maximization (DIIMM) on a graph.
//
// Examples:
//
//	# 50 seeds on a SNAP edge list, IC model, 8 in-process machines
//	dimm -graph soc-LiveJournal1.txt -k 50 -machines 8
//
//	# a synthetic network made by gengraph, LT model, tighter epsilon,
//	# verified by simulation
//	gengraph -nodes 100000 -degree 20 -out g.dsg
//	dimm -graph g.dsg -model lt -eps 0.1 -verify 10000
//
//	# against TCP workers started with dimmd (see cmd/dimmd)
//	dimm -graph g.dsg -workers 127.0.0.1:7001,127.0.0.1:7002
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"dimm"
	"dimm/internal/cluster"
	"dimm/internal/core"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dimm: ")

	var (
		graphPath   = flag.String("graph", "", "segmented (.dsg) graph file, or a text edge list")
		backendName = flag.String("graph-backend", "mem", "graph materialization: mem (heap) | mmap (demand-paged, .dsg files only; serves graphs larger than RAM)")
		undirected  = flag.Bool("undirected", false, "treat the edge list as undirected")
		weights     = flag.String("weights", "wc", "edge weight model: wc|uniform|trivalency|file (file = keep probabilities from the input)")
		uniformP    = flag.Float64("uniform-p", 0.1, "probability for -weights uniform")
		modelName   = flag.String("model", "ic", "diffusion model: ic|lt")
		algo        = flag.String("algo", "imm", "framework: imm (DIIMM) | opimc (distributed OPIM-C)")
		k           = flag.Int("k", 50, "number of seeds")
		eps         = flag.Float64("eps", 0.1, "approximation slack epsilon")
		delta       = flag.Float64("delta", 0, "failure probability (0 = 1/n)")
		machines    = flag.Int("machines", 1, "number of in-process machines")
		workers     = flag.String("workers", "", "comma-separated TCP worker addresses (overrides -machines)")
		subset      = flag.Bool("subsim", false, "use SUBSIM subset sampling (requires weighted-cascade weights)")
		parallelism = flag.Int("parallelism", 0, "RR-generation goroutines per machine (0 = auto: GOMAXPROCS/machines, 1 = sequential)")
		batch       = flag.Int("batch", 0, "frontier-batch width of each sampling shard (0 = auto, 1 = scalar kernel; never changes sampled sets)")
		seed        = flag.Uint64("seed", 1, "random seed")
		callTimeout = flag.Duration("call-timeout", 0, "per-call deadline for TCP worker requests (0 = none); a wedged worker fails the run instead of hanging it")

		retries      = flag.Int("retries", cluster.DefaultRetries, "exact number of redial+replay attempts per TCP worker failure before quarantining it (-workers runs only)")
		retryBackoff = flag.Duration("retry-backoff", cluster.DefaultRetryBackoff, "backoff before the first redial of a failed TCP worker (doubles per attempt, jittered; -workers runs only)")

		verify      = flag.Int("verify", 0, "verify the result with this many Monte-Carlo simulations")
		showMetrics = flag.Bool("metrics", true, "print the time/traffic breakdown")
	)
	flag.Parse()

	model, err := diffusion.ParseModel(*modelName)
	if err != nil {
		log.Fatal(err)
	}
	if *graphPath == "" {
		log.Fatal("missing -graph (make one with gengraph; try -h)")
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
	defer g.Close()
	fmt.Printf("graph: %d nodes, %d edges, avg degree %.1f\n", g.NumNodes(), g.NumEdges(), g.AvgDegree())

	par := *parallelism
	if par == 0 {
		par = core.AutoParallelism
	}
	opt := core.Options{
		K: *k, Eps: *eps, Delta: *delta, Machines: *machines,
		Model: model, Subset: *subset, Seed: *seed, Parallelism: par,
		Batch: *batch,
	}
	if *algo == "opimc" {
		if *workers != "" {
			log.Fatal("-algo opimc currently runs with in-process machines only (use -machines)")
		}
		res, err := core.RunDOPIMC(g, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("seeds (%d): %v\n", len(res.Seeds), res.Seeds)
		fmt.Printf("certified: spread >= %.1f, OPT <= %.1f (ratio %.3f) with %d x2 RR sets in %d rounds\n",
			res.SpreadLower, res.OptUpper, res.Ratio, res.Theta, res.Rounds)
		if *verify > 0 {
			mean, se := dimm.EstimateSpread(g, res.Seeds, model, *verify, *seed+1)
			fmt.Printf("monte-carlo verification: spread %.1f ± %.1f over %d simulations\n", mean, se, *verify)
		}
		return
	}
	if *algo != "imm" {
		log.Fatalf("unknown -algo %q (want imm|opimc)", *algo)
	}
	var res *core.Result
	if *workers != "" {
		addrs := strings.Split(*workers, ",")
		// A worker that drops its connection mid-run is redialed and
		// re-seeded from the replay journal (dimmd restarts hand each
		// connection a fresh worker); only if -retries redials fail is
		// it quarantined and its shard regenerated on the survivors.
		cl, err := cluster.DialCluster(addrs, g.NumNodes(), *callTimeout, cluster.Recovery{
			Retries: *retries, Backoff: *retryBackoff, Salt: *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer cl.Close()
		opt.Machines = len(addrs)
		res, err = core.RunDIIMMOnCluster(g.NumNodes(), cl, opt)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		res, err = core.RunDIIMM(g, opt)
		if err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("seeds (%d): %v\n", len(res.Seeds), res.Seeds)
	fmt.Printf("theta: %d RR sets (total size %d), lower bound %.1f\n",
		res.Theta, res.Stats.TotalSize, res.LowerBound)
	fmt.Printf("estimated spread: %.1f (%.2f%% of the network)\n",
		res.EstSpread, 100*res.EstSpread/float64(g.NumNodes()))
	if *showMetrics {
		m := res.Metrics
		fmt.Printf("wall %.3fs | cluster critical path %.3fs (gen %.3fs, compute %.3fs, master %.3fs, comm %.3fs)\n",
			res.Wall.Seconds(), m.CriticalPath().Seconds(),
			m.GenCritical.Seconds(), m.SelCritical.Seconds(), m.MasterCompute.Seconds(), m.Comm.Seconds())
		fmt.Printf("traffic: %d bytes sent, %d received over %d rounds\n",
			m.BytesSent, m.BytesReceived, m.Rounds)
	}
	if *verify > 0 {
		mean, se := dimm.EstimateSpread(g, res.Seeds, model, *verify, *seed+1)
		fmt.Printf("monte-carlo verification: spread %.1f ± %.1f over %d simulations\n", mean, se, *verify)
	}
}
