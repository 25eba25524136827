// Command gengraph makes every graph file the other commands read: the
// synthetic dataset stand-ins of Table III, custom graphs, and SNAP edge
// lists converted to the segmented format. The -out extension picks the
// format: .dsg writes the segmented binary format, .txt a "u v p" text
// edge list.
//
//	# materialize all four Table III stand-ins at the default scale
//	gengraph -datasets all -out ./data
//
//	# a custom 1M-node power-law network as a segmented file
//	gengraph -nodes 1000000 -degree 20 -out ./data/big.dsg
//
//	# a 100M+ edge R-MAT graph written disk-direct: the edge list and the
//	# CSR never exist in memory, so peak RSS stays bounded at any scale
//	gengraph -kind rmat -nodes 16777216 -degree 8 -out ./data/huge.dsg
//
//	# convert a SNAP edge list (streaming for .dsg outputs)
//	gengraph -convert soc-LiveJournal1.txt -out lj.dsg
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dimm/internal/graph"
	"dimm/internal/rss"
	"dimm/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gengraph: ")

	var (
		datasets   = flag.String("datasets", "", "comma-separated Table III stand-ins to build, or 'all'")
		scale      = flag.Float64("scale", 1.0, "dataset scale factor (0.25 = tiny, 4 = full)")
		nodes      = flag.Int("nodes", 0, "custom graph: node count")
		degree     = flag.Float64("degree", 10, "custom graph: average degree")
		undirected = flag.Bool("undirected", false, "custom graph: undirected")
		kind       = flag.String("kind", "pa", "custom graph generator: pa|er|community|rmat")
		seed       = flag.Uint64("seed", 1, "generator seed")
		convert    = flag.String("convert", "", "edge-list file to convert (streaming when -out is .dsg)")
		out        = flag.String("out", ".", "output directory for -datasets; for -nodes/-convert a .dsg (segmented) or .txt (edge list) file")
		stats      = flag.String("stats", "", "print statistics for a graph file and exit")
		sortBufMB  = flag.Int("sort-buf-mb", 0, "external-sort buffer for disk-direct builds, MiB (0 = default)")
	)
	flag.Parse()

	switch {
	case *stats != "":
		printStats(*stats, *undirected)

	case *convert != "":
		start := time.Now()
		seg := segmentedOut(*out)
		if seg {
			st, err := graph.ConvertEdgeListToSegmented(*convert, *out, *undirected, graph.SegmentBuildOptions{
				Weights: graph.WeightedCascade, HasWeights: true, SortBufBytes: *sortBufMB << 20,
			})
			if err != nil {
				log.Fatal(err)
			}
			info, err := graph.StatSegmented(*out)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%s: %d nodes, %d edges -> %s (%d sort runs, %s spilled)\n",
				*convert, st.Nodes, st.Edges, *out, st.Runs, fmtBytes(st.SpillBytes))
			report(st.Edges, start, info.CSRBytes)
			printCSR(*out, info)
			break
		}
		g, err := graph.LoadEdgeListFile(*convert, *undirected)
		if err != nil {
			log.Fatal(err)
		}
		if err := writeAny(*out, seg, g); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d nodes, %d edges -> %s\n", *convert, g.NumNodes(), g.NumEdges(), *out)
		fmt.Printf("  content hash %s\n", g.ContentHash())
		report(g.NumEdges(), start, g.CSRBytes())

	case *nodes > 0:
		cfg := graph.GenConfig{Nodes: *nodes, AvgDegree: *degree, Undirected: *undirected, Seed: *seed, UniformAttach: 0.15}
		start := time.Now()
		seg := segmentedOut(*out)
		if *kind == "rmat" && seg {
			// Disk-direct: the R-MAT stream feeds the external sorter and
			// the segment writer; nothing edge-sized is ever heap-resident.
			st, err := graph.BuildSegmented(*out, *nodes, func(emit func(from, to uint32, prob float32) error) error {
				return graph.GenRMATStream(graph.RMATConfig{GenConfig: cfg},
					func(int, int64) error { return nil },
					func(u, v uint32) error { return emit(u, v, 1) })
			}, graph.SegmentBuildOptions{
				Weights: graph.WeightedCascade, HasWeights: true, SortBufBytes: *sortBufMB << 20,
			})
			if err != nil {
				log.Fatal(err)
			}
			info, err := graph.StatSegmented(*out)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("generated %d nodes, %d edges disk-direct -> %s (%s file, %d sort runs, %s spilled)\n",
				st.Nodes, st.Edges, *out, fmtBytes(st.FileBytes), st.Runs, fmtBytes(st.SpillBytes))
			report(st.Edges, start, info.CSRBytes)
			printCSR(*out, info)
			break
		}
		var g *graph.Graph
		var err error
		switch *kind {
		case "pa":
			g, err = graph.GenPreferential(cfg)
		case "er":
			g, err = graph.GenErdosRenyi(cfg)
		case "community":
			g, err = graph.GenCommunity(graph.CommunityConfig{GenConfig: cfg, Communities: 16, InFraction: 0.9})
		case "rmat":
			g, err = graph.GenRMAT(graph.RMATConfig{GenConfig: cfg})
		default:
			log.Fatalf("unknown -kind %q (want pa|er|community|rmat)", *kind)
		}
		if err != nil {
			log.Fatal(err)
		}
		g, err = graph.AssignWeights(g, graph.WeightedCascade, 0, 0)
		if err != nil {
			log.Fatal(err)
		}
		if err := writeAny(*out, seg, g); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("generated %d nodes, %d edges (avg degree %.1f) -> %s\n",
			g.NumNodes(), g.NumEdges(), g.AvgDegree(), *out)
		fmt.Printf("  content hash %s\n", g.ContentHash())
		report(g.NumEdges(), start, g.CSRBytes())

	case *datasets != "":
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
		want := map[string]bool{}
		all := *datasets == "all"
		for _, d := range strings.Split(*datasets, ",") {
			want[strings.TrimSpace(d)] = true
		}
		for _, spec := range workload.Specs(workload.Scale(*scale)) {
			if !all && !want[spec.Name] {
				continue
			}
			g, err := spec.Build()
			if err != nil {
				log.Fatal(err)
			}
			path := filepath.Join(*out, spec.Name+".dsg")
			if err := graph.WriteSegmentedFile(path, g, graph.WeightedCascade.String()); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-16s %9d nodes %10d edges  avg %.1f  %s  -> %s\n",
				spec.Name, g.NumNodes(), g.NumEdges(), g.AvgDegree(), g.ContentHash(), path)
		}

	default:
		fmt.Fprintln(os.Stderr, "nothing to do: pass -datasets, -nodes or -convert (see -h)")
		os.Exit(2)
	}
}

// segmentedOut reports whether -out names a .dsg file, and refuses a
// name the other commands would not read back as what was written:
// graph.LoadAny opens a .dsg as segmented and reads anything else as a
// text edge list.
func segmentedOut(path string) bool {
	switch {
	case strings.HasSuffix(path, ".dsg"):
		return true
	case strings.HasSuffix(path, ".txt"):
		return false
	default:
		log.Fatalf("-out %q: name a .dsg (segmented) or .txt (edge list) file", path)
		return false
	}
}

func writeAny(path string, seg bool, g *graph.Graph) error {
	if seg {
		return graph.WriteSegmentedFile(path, g, graph.WeightedCascade.String())
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return graph.WriteEdgeList(f, g)
}

// report prints the throughput and memory line every generating mode
// ends with: edges/sec over the whole build, kernel-accounted peak RSS,
// and that peak as a fraction of the CSR it produced.
func report(edges int64, start time.Time, csrBytes int64) {
	el := time.Since(start)
	eps := float64(edges) / el.Seconds()
	peak := rss.Peak()
	fmt.Printf("  %s in %v (%.0f edges/sec)\n", fmtCount(edges, "edges"), el.Round(time.Millisecond), eps)
	if peak > 0 && csrBytes > 0 {
		fmt.Printf("  peak RSS %s (%.1f%% of the %s CSR)\n", fmtBytes(peak), 100*float64(peak)/float64(csrBytes), fmtBytes(csrBytes))
	} else if peak > 0 {
		fmt.Printf("  peak RSS %s\n", fmtBytes(peak))
	}
}

// printCSR prints a segmented file's CSR payload beside the bytes a graph
// opened from it holds, which is less for a uniform-in file: it opens
// with one in-probability per node instead of two per edge.
func printCSR(path string, info *graph.SegInfo) {
	g, err := graph.OpenSegmented(path, graph.BackendMmap)
	if err != nil {
		log.Fatal(err)
	}
	defer g.Close()
	fmt.Printf("  CSR %s in the file, %s opened\n", fmtBytes(info.CSRBytes), fmtBytes(g.CSRBytes()))
}

func printStats(path string, undirected bool) {
	if strings.HasSuffix(path, ".dsg") {
		info, err := graph.StatSegmented(path)
		if err != nil {
			log.Fatal(err)
		}
		g, err := graph.OpenSegmented(path, graph.BackendMmap)
		if err != nil {
			log.Fatal(err)
		}
		defer g.Close()
		fmt.Printf("%s (segmented):\n", path)
		fmt.Printf("  nodes         %d\n", info.Nodes)
		fmt.Printf("  edges         %d\n", info.Edges)
		fmt.Printf("  avg degree    %.2f\n", g.AvgDegree())
		fmt.Printf("  weights       %s (uniform-in %v)\n", info.WeightTag, info.UniformIn)
		fmt.Printf("  file          %s (%s CSR payload, %d CRC blocks)\n", fmtBytes(info.FileBytes), fmtBytes(info.CSRBytes), info.Blocks)
		fmt.Printf("  opened CSR    %s\n", fmtBytes(g.CSRBytes()))
		// The hash comes from the header trailers: no payload read.
		fmt.Printf("  content hash  %s\n", g.ContentHash())
		return
	}
	g, err := graph.LoadAny(path, graph.LoadOptions{Undirected: undirected, Weights: "file"})
	if err != nil {
		log.Fatal(err)
	}
	s := graph.ComputeStats(g)
	fmt.Printf("%s:\n", path)
	fmt.Printf("  nodes         %d\n", s.Nodes)
	fmt.Printf("  edges         %d\n", s.Edges)
	fmt.Printf("  avg degree    %.2f\n", s.AvgDegree)
	fmt.Printf("  max out/in    %d / %d\n", s.MaxOutDegree, s.MaxInDegree)
	fmt.Printf("  out p50/90/99 %d / %d / %d\n", s.P50, s.P90, s.P99)
	fmt.Printf("  isolated      %d\n", s.Isolated)
	fmt.Printf("  symmetric     %v\n", s.Symmetric)
	fmt.Printf("  content hash  %s\n", g.ContentHash())
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

func fmtCount(v int64, unit string) string {
	switch {
	case v >= 1_000_000_000:
		return fmt.Sprintf("%.2fB %s", float64(v)/1e9, unit)
	case v >= 1_000_000:
		return fmt.Sprintf("%.1fM %s", float64(v)/1e6, unit)
	case v >= 1_000:
		return fmt.Sprintf("%.1fK %s", float64(v)/1e3, unit)
	default:
		return fmt.Sprintf("%d %s", v, unit)
	}
}
