// Command dimmsrv runs the resident influence-maximization query
// service (internal/serve): it loads the graph once, keeps worker
// clusters warm, and answers seed-set queries over HTTP from a resident
// RR sample with per-query certified approximation bounds.
//
//	# serve a SNAP edge list with 4 in-process machines per collection
//	dimmsrv -graph soc-LiveJournal1.txt -machines 4 -listen :8080
//
//	# query it
//	curl -X POST localhost:8080/v1/seeds -d '{"k": 10, "eps": 0.2}'
//	curl 'localhost:8080/v1/spread?seeds=12,99,3&rounds=10000'
//	curl localhost:8080/statsz
//
// Against standalone TCP workers (cmd/dimmd), list an even number of
// addresses: the first half backs the selection collection R1, the
// second half the certification collection R2. The two halves must be
// started with distinct -seed-index values so their RR streams are
// independent — the certificate is unsound otherwise.
//
//	dimmsrv -graph g.dsg -workers host1:7001,host2:7001,host3:7001,host4:7001
//
// With -checkpoint-dir the resident sample is checkpointed to disk after
// every growth epoch, and -restore replays it on the next start — a warm
// restart that answers the same queries byte-identically with zero RR
// generation (see README "Checkpointing" and cmd/dimmstore):
//
//	dimmsrv -graph g.dsg -warm -checkpoint-dir /var/lib/dimm/ckpt
//	# ...crash or deploy...
//	dimmsrv -graph g.dsg -checkpoint-dir /var/lib/dimm/ckpt -restore
//
// With -dynamic the service accepts streaming edge updates — the graph
// mutates behind a delta overlay and the resident RR sample is repaired
// in place instead of resampled (see README "Dynamic graphs"):
//
//	dimmsrv -graph g.dsg -dynamic
//	curl -X POST localhost:8080/v1/update \
//	  -d '{"seq": 1, "ops": [{"op":"add","from":12,"to":99,"prob":0.05}]}'
//
// SIGINT/SIGTERM triggers a graceful stop: the listener closes,
// in-flight requests get -shutdown-grace to finish, then the worker
// clusters shut down and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dimm/internal/cluster"
	"dimm/internal/core"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/imm"
	"dimm/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dimmsrv: ")

	var (
		graphPath   = flag.String("graph", "", "segmented (.dsg) graph file, or a text edge list")
		backendName = flag.String("graph-backend", "mem", "graph materialization: mem (heap) | mmap (demand-paged, .dsg files only; incompatible with -dynamic)")
		undirected  = flag.Bool("undirected", false, "treat the edge list as undirected")
		weights     = flag.String("weights", "wc", "edge weight model: wc|uniform|trivalency|file")
		uniformP    = flag.Float64("uniform-p", 0.1, "probability for -weights uniform")
		modelName   = flag.String("model", "ic", "diffusion model: ic|lt")

		listen      = flag.String("listen", ":8080", "HTTP listen address")
		machines    = flag.Int("machines", 1, "in-process machines per RR collection")
		workers     = flag.String("workers", "", "comma-separated TCP worker addresses, first half R1 / second half R2 (overrides -machines)")
		subset      = flag.Bool("subsim", false, "use SUBSIM subset sampling")
		parallelism = flag.Int("parallelism", 0, "RR-generation goroutines per machine (0 = auto)")
		batch       = flag.Int("batch", 0, "frontier-batch width of each sampling shard (0 = auto, 1 = scalar kernel; never changes sampled sets)")
		seed        = flag.Uint64("seed", 1, "random seed")

		kMax     = flag.Int("kmax", 50, "largest admissible query seed-set size")
		epsFloor = flag.Float64("eps-floor", 0.1, "tightest admissible query epsilon")
		delta    = flag.Float64("delta", 0, "service-lifetime failure probability (0 = 1/n)")

		sketchK = flag.Int("sketch-k", 0, "bottom-k size of the sketch tier behind /v1/spread?mode=fast (0 = default, negative disables the tier)")

		dynamic = flag.Bool("dynamic", false, "accept streaming graph updates on POST /v1/update, repairing the resident RR sample in place (TCP workers must run dimmd -dynamic; incompatible with -subsim and -restore)")

		cacheSize   = flag.Int("cache", 256, "LRU capacity for recent (k, eps) answers (negative disables)")
		maxInFlight = flag.Int("max-inflight", 64, "concurrently admitted query requests; excess get 429")
		warm        = flag.Bool("warm", false, "grow the resident sample for the hardest admissible query before accepting traffic")
		callTimeout = flag.Duration("call-timeout", 0, "per-call deadline for TCP worker requests (0 = none)")

		retries      = flag.Int("retries", cluster.DefaultRetries, "exact number of respawn attempts (redial+replay for TCP workers) per worker failure before quarantining it")
		retryBackoff = flag.Duration("retry-backoff", cluster.DefaultRetryBackoff, "backoff before the first respawn of a failed worker (doubles per attempt, jittered)")

		grace = flag.Duration("shutdown-grace", 10*time.Second, "on SIGINT/SIGTERM, deadline for in-flight HTTP requests to finish")

		checkpointDir = flag.String("checkpoint-dir", "", "directory for the durable RR-sample store; each growth epoch is checkpointed there")
		restore       = flag.Bool("restore", false, "replay the checkpoint in -checkpoint-dir at startup (warm restart, no resampling)")
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
	log.Printf("graph: %d nodes, %d edges, avg degree %.1f", g.NumNodes(), g.NumEdges(), g.AvgDegree())

	if *restore && *checkpointDir == "" {
		log.Fatal("-restore needs -checkpoint-dir")
	}
	cfg := serve.Config{
		Graph:         g,
		Model:         model,
		Subset:        *subset,
		Seed:          *seed,
		Dynamic:       *dynamic,
		Machines:      *machines,
		Parallelism:   parOpt(*parallelism),
		Batch:         *batch,
		SketchK:       *sketchK,
		KMax:          *kMax,
		EpsFloor:      *epsFloor,
		Delta:         *delta,
		CacheSize:     *cacheSize,
		MaxInFlight:   *maxInFlight,
		Retries:       *retries,
		RetryBackoff:  *retryBackoff,
		CheckpointDir: *checkpointDir,
		Restore:       *restore,
		WeightTag:     *weights,
	}
	if *workers != "" {
		rec := cluster.Recovery{Retries: *retries, Backoff: *retryBackoff}
		pair, err := dialWorkerHalves(*workers, g.NumNodes(), *callTimeout, *seed, rec)
		if err != nil {
			log.Fatal(err)
		}
		cfg.C1, cfg.C2 = pair[0], pair[1]
	}
	svc, err := serve.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if st := svc.Stats(); st.Restored {
		log.Printf("restore: resumed epoch %d with theta=%d from %d checkpoint segments in %s",
			st.Epoch, st.Theta, st.RestoredEpochs, *checkpointDir)
	} else if *restore {
		log.Printf("restore: no checkpoint in %s, cold start", *checkpointDir)
	}
	if st := svc.Stats(); st.SketchK > 0 {
		src := "rebuilt from the resident sample"
		if st.SketchRestored {
			src = "restored from the checkpoint"
		}
		log.Printf("fast tier: bottom-%d sketches over %d instances (%s)", st.SketchK, st.SketchTheta, src)
	}

	if *warm {
		start := time.Now()
		ans, err := svc.Warm()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("warm: k=%d eps=%.2f certified at ratio %.3f with theta=%d in %.1fs",
			svc.KMax(), svc.EpsFloor(), ans.Ratio, ans.Theta, time.Since(start).Seconds())
	}

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: svc.Handler()}
	log.Printf("serving kmax=%d eps-floor=%.2f on %s", *kMax, *epsFloor, lis.Addr())

	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		defer close(done)
		s := <-sig
		log.Printf("received %v, draining (grace %v)", s, *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		if err := svc.Close(); err != nil {
			log.Printf("service close: %v", err)
		}
		if err := g.Close(); err != nil {
			log.Printf("graph close: %v", err)
		}
	}()

	if err := httpSrv.Serve(lis); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-done
	log.Print("stopped")
}

// parOpt maps the flag convention (0 = auto) onto core's (-1 = auto).
func parOpt(p int) int {
	if p == 0 {
		return core.AutoParallelism
	}
	return p
}

// dialWorkerHalves splits the address list into the R1 and R2 clusters,
// whose rebalance streams are salted with the seed's imm.PairSeeds split.
// Each cluster's failover redials a failed worker's address: a dimmd
// restart (Serve hands every accepted connection a fresh worker) is
// re-seeded by the cluster's replay journal, so a bounced worker rejoins
// with bit-identical state instead of forcing a cold start.
func dialWorkerHalves(list string, n int, callTimeout time.Duration, seed uint64, rec cluster.Recovery) ([2]*cluster.Cluster, error) {
	addrs := strings.Split(list, ",")
	if len(addrs) < 2 || len(addrs)%2 != 0 {
		return [2]*cluster.Cluster{}, fmt.Errorf("need an even number of worker addresses (R1 half + R2 half), got %d", len(addrs))
	}
	half := len(addrs) / 2
	var pair [2]*cluster.Cluster
	for j, salt := range imm.PairSeeds(seed) {
		rec.Salt = salt
		var err error
		if pair[j], err = cluster.DialCluster(addrs[j*half:(j+1)*half], n, callTimeout, rec); err != nil {
			if j > 0 {
				pair[0].Close()
			}
			return pair, err
		}
	}
	return pair, nil
}
