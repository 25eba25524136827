package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/serve"
)

// scaleParams fixes the sizes of one scale. Input sizes belong to the
// scale, never to the seed or the run length.
type scaleParams struct {
	Seconds float64 // default measuring window of one run

	NodesBig   int // graph of diimm_ic, diimm_lt_tcp and serve_certified
	NodesSmall int // graph of serve_update

	MinRuns, MaxRuns int // timed DIIMM runs inside the window
	SetupReps        int // set-ups timed per run; setup_s is their median
	MCRounds         int // forward simulations behind spread_nodes
	ProbeSets        int // RR sets the isolated generation probe draws

	ICK   int
	ICEps float64
	LTK   int
	LTEps float64

	KMax         int
	CertEpsFloor float64 // serve_certified
	UpdEpsFloor  float64 // serve_update

	UpdWriteRate float64 // serve_update update batches per second
	UpdOps       int     // edge operations per update batch
}

// Probed on the 2-core / 260 MiB-LLC reference VM; README.md has the
// numbers. The contract caps one invocation at about 35 s, so the
// measuring window is 25 s and ε of diimm_ic is 0.25 rather than the 0.2
// first probed (5.8 s a run left room for three runs only); the graphs
// are the sizes the issue names. ε = 0.3 would be cheaper still but sits
// exactly where IMM's phase 1 stops after three rounds on some seeds and
// four on others (n·F ≈ 46.5 K against (1+√2ε)·n/8 = 46.7 K), which
// makes θ, and with it every time, bimodal across seeds.
var scales = map[string]scaleParams{
	"full": {
		Seconds:  25,
		NodesBig: 262144, NodesSmall: 131072,
		MinRuns: 5, MaxRuns: 12, SetupReps: 3, MCRounds: 100, ProbeSets: 50000,
		ICK: 50, ICEps: 0.25, LTK: 200, LTEps: 0.1,
		KMax: 50, CertEpsFloor: 0.1, UpdEpsFloor: 0.15,
		UpdWriteRate: 4, UpdOps: 32,
	},
	"tiny": {
		Seconds:  2,
		NodesBig: 4096, NodesSmall: 4096,
		MinRuns: 2, MaxRuns: 2, SetupReps: 2, MCRounds: 100, ProbeSets: 2000,
		ICK: 10, ICEps: 0.3, LTK: 20, LTEps: 0.3,
		KMax: 10, CertEpsFloor: 0.3, UpdEpsFloor: 0.3,
		UpdWriteRate: 8, UpdOps: 8,
	},
}

const (
	graphGenSeed = 7        // fixed R-MAT generator seed: the graph never depends on -seed
	graphDegree  = 16       // average out-degree
	serviceSeed  = 20220501 // sampling seed of the daemons: configuration, not workload input
	mcSeed       = 977      // fixed seed of the spread_nodes simulations
	keySeed      = 32       // fixed seed of serve_update's 32 (k, ε) cache keys
	machines     = 2        // ℓ

	closedClients = 2   // callers of the closed loop
	certRate      = 60  // serve_certified open loop, requests per second
	updReadRate   = 200 // serve_update open loop, reads per second
	spreadRounds  = 200 // rounds of a Monte-Carlo /v1/spread request
	spreadSeeds   = 5   // seeds of a Monte-Carlo /v1/spread request
)

// prepGraph returns the path of the cached R-MAT weighted-cascade graph
// of n nodes, generating and sealing it on first use. The file name
// carries every generator parameter, so a changed parameter can never
// pick up a stale file.
func prepGraph(cacheDir string, n int) (string, error) {
	path := filepath.Join(cacheDir, fmt.Sprintf("rmat-n%d-d%d-g%d-wc.dsg", n, graphDegree, graphGenSeed))
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return "", err
	}
	start := time.Now()
	g, err := graph.GenRMAT(graph.RMATConfig{GenConfig: graph.GenConfig{Nodes: n, AvgDegree: graphDegree, Seed: graphGenSeed}})
	if err != nil {
		return "", fmt.Errorf("generating graph: %w", err)
	}
	if g, err = graph.AssignWeights(g, graph.WeightedCascade, 0, 0); err != nil {
		return "", fmt.Errorf("assigning weights: %w", err)
	}
	if err := graph.WriteSegmentedFile(path, g, graph.WeightedCascade.String()); err != nil {
		return "", fmt.Errorf("sealing graph: %w", err)
	}
	logf("prep: generated %s (%d nodes, %d edges) in %.1fs", filepath.Base(path), g.NumNodes(), g.NumEdges(), time.Since(start).Seconds())
	return path, nil
}

// openGraph opens a prepared graph with the heap backend.
func openGraph(path string) (*graph.Graph, error) {
	return graph.LoadAny(path, graph.LoadOptions{Weights: "file", Backend: graph.BackendMem})
}

// certifiedConfig is the daemon configuration of serve_certified; the
// checkpoint is pinned to it, so prep and the measured restore share it.
func certifiedConfig(g *graph.Graph, sc scaleParams, checkpointDir string) serve.Config {
	return serve.Config{
		Graph: g, Model: diffusion.IC, Seed: serviceSeed,
		Machines: machines, Parallelism: 1,
		KMax: sc.KMax, EpsFloor: sc.CertEpsFloor,
		CheckpointDir: checkpointDir, WeightTag: graph.WeightedCascade.String(),
	}
}

// prepCheckpoint returns the directory of the cached checkpoint of a
// cold-warmed serve_certified daemon, building it on first use. The
// directory name carries the graph's content hash and every sampling
// parameter; it is built aside and renamed, so an interrupted prep
// leaves nothing that looks complete.
func prepCheckpoint(cacheDir, graphPath string, sc scaleParams) (string, error) {
	g, err := openGraph(graphPath)
	if err != nil {
		return "", err
	}
	hash := g.ContentHash()
	hash = hash[strings.LastIndexByte(hash, ':')+1:]
	dir := filepath.Join(cacheDir, fmt.Sprintf("ckpt-%.12s-ic-m%d-k%d-e%g-s%d",
		hash, machines, sc.KMax, sc.CertEpsFloor, serviceSeed))
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err == nil {
		return dir, nil
	}
	start := time.Now()
	tmp, err := os.MkdirTemp(cacheDir, "ckpt-tmp-*")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	svc, err := serve.New(certifiedConfig(g, sc, tmp))
	if err != nil {
		return "", fmt.Errorf("prep daemon: %w", err)
	}
	ans, err := svc.Warm()
	if cerr := svc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("prep warm: %w", err)
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", err
	}
	logf("prep: cold warm to theta=%d in %.1fs, checkpoint at %s", ans.Theta, time.Since(start).Seconds(), filepath.Base(dir))
	return dir, nil
}
