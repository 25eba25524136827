// Command influapp runs the influence-based applications built on the
// distributed substrate: targeted influence maximization, budgeted
// influence maximization, and seed minimization.
//
//	# reach a specific audience: nodes listed in targets.txt get weight 1
//	influapp -graph g.dsg -mode targeted -targets targets.txt -k 20
//
//	# degree-priced influencers under a budget
//	influapp -graph g.dsg -mode budgeted -budget 100 -cost-model degree
//
//	# smallest seed set reaching 5% of the network
//	influapp -graph g.dsg -mode seedmin -goal-frac 0.05
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"dimm"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("influapp: ")

	var (
		graphPath   = flag.String("graph", "", "segmented (.dsg) graph file, or a text edge list")
		backendName = flag.String("graph-backend", "mem", "graph materialization: mem (heap) | mmap (demand-paged, .dsg files only)")
		undirected  = flag.Bool("undirected", false, "treat the edge list as undirected")
		mode        = flag.String("mode", "targeted", "application: targeted|budgeted|seedmin")
		modelName   = flag.String("model", "ic", "diffusion model: ic|lt")
		machines    = flag.Int("machines", 4, "number of machines")
		eps         = flag.Float64("eps", 0.2, "sampling epsilon")
		seed        = flag.Uint64("seed", 1, "random seed")
		k           = flag.Int("k", 20, "targeted: number of seeds")
		targets     = flag.String("targets", "", "targeted: file of node ids (one per line) with weight 1; empty = first half of nodes")
		budget      = flag.Float64("budget", 50, "budgeted: total seeding budget")
		costModel   = flag.String("cost-model", "degree", "budgeted: unit|degree")
		goalFrac    = flag.Float64("goal-frac", 0.05, "seedmin: fraction of the network to reach")
		maxSeeds    = flag.Int("max-seeds", 500, "seedmin: seed cap")
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
	// A text edge list carries no probabilities: apply the paper's WC
	// setting. A segmented file keeps the weights it stores.
	weights := "wc"
	if strings.HasSuffix(*graphPath, ".dsg") {
		weights = "file"
	}
	g, err := graph.LoadAny(*graphPath, graph.LoadOptions{Undirected: *undirected, Weights: weights, Backend: backend})
	if err != nil {
		log.Fatal(err)
	}
	defer g.Close()
	n := g.NumNodes()
	fmt.Printf("graph: %d nodes, %d edges\n", n, g.NumEdges())
	cfg := dimm.AppConfig{Machines: *machines, Model: model, Eps: *eps, Seed: *seed}

	switch *mode {
	case "targeted":
		weights := make([]float64, n)
		if *targets != "" {
			ids, err := readIDs(*targets, n)
			if err != nil {
				log.Fatal(err)
			}
			for _, id := range ids {
				weights[id] = 1
			}
			fmt.Printf("targets: %d nodes from %s\n", len(ids), *targets)
		} else {
			for v := 0; v < n/2; v++ {
				weights[v] = 1
			}
			fmt.Printf("targets: first %d nodes (no -targets file given)\n", n/2)
		}
		res, err := dimm.MaximizeTargetedInfluence(g, weights, *k, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("seeds: %v\n", res.Seeds)
		fmt.Printf("weighted spread: %.1f targeted users (θ=%d, wall %.2fs)\n",
			res.EstSpread, res.Theta, res.Wall.Seconds())

	case "budgeted":
		costs := make([]float64, n)
		switch *costModel {
		case "unit":
			for v := range costs {
				costs[v] = 1
			}
		case "degree":
			for v := range costs {
				costs[v] = 1 + float64(g.OutDegree(uint32(v)))/10
			}
		default:
			log.Fatalf("unknown -cost-model %q", *costModel)
		}
		res, err := dimm.MaximizeBudgetedInfluence(g, costs, *budget, cfg)
		if err != nil {
			log.Fatal(err)
		}
		var spent float64
		for _, s := range res.Seeds {
			spent += costs[s]
		}
		fmt.Printf("bought %d seeds for %.1f of %.1f budget\n", len(res.Seeds), spent, *budget)
		fmt.Printf("estimated spread: %.1f users (θ=%d, wall %.2fs)\n",
			res.EstSpread, res.Theta, res.Wall.Seconds())

	case "seedmin":
		goal := *goalFrac * float64(n)
		res, err := dimm.MinimizeSeeds(g, goal, *maxSeeds, cfg)
		if err != nil {
			log.Fatal(err)
		}
		status := "REACHED"
		if !res.Reached {
			status = "NOT reached (raise -max-seeds)"
		}
		fmt.Printf("goal %.0f users (%.1f%%): %s with %d seeds, estimated spread %.1f (θ=%d, wall %.2fs)\n",
			goal, 100**goalFrac, status, len(res.Seeds), res.EstSpread, res.Theta, res.Wall.Seconds())

	default:
		log.Fatalf("unknown -mode %q (want targeted|budgeted|seedmin)", *mode)
	}
}

func readIDs(path string, n int) ([]uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ids []uint32
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.Atoi(line)
		if err != nil || v < 0 || v >= n {
			return nil, fmt.Errorf("bad node id %q (graph has %d nodes)", line, n)
		}
		ids = append(ids, uint32(v))
	}
	return ids, sc.Err()
}
