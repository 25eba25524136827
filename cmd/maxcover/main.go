// Command maxcover runs element-distributed maximum coverage (NEWGREEDI)
// on the neighbor-set instance of a graph, optionally comparing against
// the GREEDI composable-core-set baseline and the sequential greedy —
// the §IV-C experiment of the paper as a CLI.
//
//	maxcover -graph g.bin -k 50 -machines 8 -compare
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"dimm/internal/core"
	"dimm/internal/coverage"
	"dimm/internal/graph"
	"dimm/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("maxcover: ")

	var (
		graphPath   = flag.String("graph", "", "edge-list (.txt), binary (.bin) or segmented (.dsg) graph file")
		backendName = flag.String("graph-backend", "mem", "graph materialization: mem (heap) | mmap (demand-paged, .dsg files only)")
		undirected  = flag.Bool("undirected", false, "treat the edge list as undirected")
		synthNodes  = flag.Int("synth-nodes", 0, "generate a synthetic graph instead of loading one")
		synthDeg    = flag.Float64("synth-degree", 10, "average degree for the synthetic graph")
		k           = flag.Int("k", 50, "number of sets (users) to pick")
		machines    = flag.Int("machines", 4, "number of machines for NEWGREEDI")
		compare     = flag.Bool("compare", false, "also run GREEDI and the sequential greedy")
		seed        = flag.Uint64("seed", 1, "seed for -synth-nodes")
	)
	flag.Parse()

	var g *graph.Graph
	var err error
	switch {
	case *synthNodes > 0:
		g, err = graph.GenPreferential(graph.GenConfig{Nodes: *synthNodes, AvgDegree: *synthDeg, Seed: *seed, UniformAttach: 0.15})
	case *graphPath == "":
		log.Fatal("provide -graph or -synth-nodes (try -h)")
	default:
		backend, berr := graph.ParseBackend(*backendName)
		if berr != nil {
			log.Fatal(berr)
		}
		// Coverage uses topology only; keep whatever weights are stored.
		g, err = graph.LoadAny(*graphPath, graph.LoadOptions{Undirected: *undirected, Weights: "file", Backend: backend})
	}
	if err != nil {
		log.Fatal(err)
	}
	defer g.Close()
	sys, err := workload.NeighborSetSystem(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance: %d sets over %d elements, total size %d\n",
		sys.NumSets(), sys.NumElements(), sys.TotalSize())

	res, err := core.NewGreeDiMaxCoverage(sys, *k, *machines)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("NEWGREEDI (ℓ=%d): coverage %d (%.2f%% of universe), wall %.3fs, critical path %.3fs, comm %.3fs, traffic %d bytes\n",
		*machines, res.Coverage, 100*float64(res.Coverage)/float64(sys.NumElements()),
		res.Wall.Seconds(), res.Metrics.CriticalPath().Seconds(), res.Metrics.Comm.Seconds(),
		res.Metrics.BytesSent+res.Metrics.BytesReceived)

	if *compare {
		start := time.Now()
		seq, err := sys.SequentialGreedy(*k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sequential greedy: coverage %d, wall %.3fs\n", seq.Coverage, time.Since(start).Seconds())
		if seq.Coverage != res.Coverage {
			fmt.Println("WARNING: NEWGREEDI diverged from the centralized greedy (this should never happen)")
		} else {
			fmt.Println("NEWGREEDI coverage equals the centralized greedy exactly (Lemma 2)")
		}
		start = time.Now()
		gd, err := coverage.GreeDi(sys, *k, *machines)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("GREEDI (κ=k, ℓ=%d): coverage %d (ratio %.3f vs NEWGREEDI), wall %.3fs\n",
			*machines, gd.Coverage, float64(gd.Coverage)/float64(res.Coverage), time.Since(start).Seconds())
	}
}
