// Command experiments regenerates every table and figure of the paper's
// evaluation section (§IV) as text tables. See DESIGN.md for the
// experiment index and EXPERIMENTS.md for recorded paper-vs-measured
// results.
//
//	# everything, quick scale
//	experiments -run all
//
//	# one figure, bigger workload and tighter epsilon
//	experiments -run fig6 -scale 1.0 -eps 0.1
//
// Dataset scale, k, ε and the machine sweeps are flags so the full paper
// settings (ε = 0.01, k = 50, 64 cores) can be requested on capable
// hardware.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"dimm/internal/bench"
	"dimm/internal/core"
	"dimm/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		run      = flag.String("run", "all", "comma list of: "+strings.Join(runNames, ",")+",all")
		scale    = flag.Float64("scale", 0.25, "dataset scale (0.25 quick, 1.0 standard, 4.0 large)")
		k        = flag.Int("k", 50, "seed set size")
		eps      = flag.Float64("eps", 0.3, "epsilon (paper uses 0.01; quadratic in runtime)")
		seed     = flag.Uint64("seed", 20220501, "base random seed")
		clusters = flag.String("cluster-sizes", "1,2,4,8,16", "ℓ sweep for the TCP-cluster figures")
		cores    = flag.String("core-counts", "1,2,4,8,16,32,64", "ℓ sweep for the multi-core figures")
		datasets = flag.String("datasets", "", "comma list of datasets (default: all four)")
		outPath  = flag.String("out", "", "also write the report to this file")
		report   = flag.String("report", "", "run everything and write an EXPERIMENTS.md-style markdown report to this file")
		repeats  = flag.Int("repeats", 1, "runs per cell; figure tables report the fastest run")
		linkRTT  = flag.Duration("link-rtt", 200*time.Microsecond, "simulated RTT for the TCP-cluster figures (paper: 1Gbps switch); 0 = raw loopback")
		linkGbps = flag.Float64("link-gbps", 1.0, "simulated link bandwidth in Gbit/s for the TCP-cluster figures; 0 = unlimited")
		par      = flag.Int("parallelism", 1, "RR-generation goroutines per worker (1 = sequential, keeps per-worker timings exact on oversubscribed boxes; 0 = auto GOMAXPROCS/machines)")
		batch    = flag.Int("batch", 0, "frontier-batch width of each sampling shard for the figure runs (0 = auto, 1 = scalar kernel)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the selected runs to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write an allocation profile at exit to this file")
	)
	flag.Parse()

	want := map[string]bool{}
	for _, r := range strings.Split(*run, ",") {
		r = strings.TrimSpace(r)
		if r != "all" && !slices.Contains(runNames, r) {
			log.Fatalf("unknown -run name %q; valid names: %s,all", r, strings.Join(runNames, ","))
		}
		want[r] = true
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Fatal(err)
			}
		}()
	}

	parallelism := *par
	if parallelism == 0 {
		parallelism = core.AutoParallelism
	}
	cfg := bench.Config{
		Out:           out,
		Scale:         workload.Scale(*scale),
		K:             *k,
		Eps:           *eps,
		Seed:          *seed,
		ClusterSizes:  parseInts("cluster-sizes", *clusters),
		CoreCounts:    parseInts("core-counts", *cores),
		Repeats:       *repeats,
		LinkRTT:       *linkRTT,
		LinkBandwidth: *linkGbps * 1e9 / 8,
		Parallelism:   parallelism,
		Batch:         *batch,
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	cfg = cfg.WithDefaults()

	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			log.Fatal(err)
		}
		if err := cfg.Report(io.MultiWriter(f, os.Stdout)); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		return
	}

	all := want["all"]
	step := func(name string, fn func() error) {
		if !all && !want[name] {
			return
		}
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}

	fmt.Fprintf(out, "DIIMM experiment harness — scale %.2f, k=%d, eps=%.2f, seed=%d\n",
		*scale, *k, *eps, *seed)
	step("tableIII", cfg.TableIII)
	step("tableIV", func() error { _, err := cfg.TableIV(); return err })
	step("fig5", func() error { _, err := cfg.Fig5(); return err })
	step("fig6", func() error { _, err := cfg.Fig6(); return err })
	step("fig7", func() error { _, err := cfg.Fig7(); return err })
	step("fig8", func() error { _, err := cfg.Fig8(); return err })
	step("fig9", func() error { _, err := cfg.Fig9(); return err })
	step("fig10", func() error { _, err := cfg.Fig10(); return err })
}

// runNames are the -run names besides "all", in the order they run.
var runNames = []string{"tableIII", "tableIV", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"}

// parseInts parses the comma list of positive machine counts given to
// the flag name.
func parseInts(name, s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			log.Fatalf("-%s: bad machine count %q", name, part)
		}
		out = append(out, v)
	}
	return out
}
