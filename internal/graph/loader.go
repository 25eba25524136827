package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// idRemap assigns dense 0..n-1 ids to arbitrary non-negative node ids in
// first-appearance order — deterministic, so two scans of the same file
// produce the same mapping (the streaming converter relies on this).
type idRemap map[int64]uint32

func (m idRemap) id(x int64) uint32 {
	if v, ok := m[x]; ok {
		return v
	}
	v := uint32(len(m))
	m[x] = v
	return v
}

// streamEdgeList scans a SNAP-style plain-text edge list — one "u v" or
// "u v p" line per edge, '#' or '%' comment lines ignored, self-loops
// silently dropped (common in raw crawls) — remapping ids through remap
// and calling emit per directed edge (both directions when undirected).
// Lines without a probability get probability 1.
func streamEdgeList(r io.Reader, undirected bool, remap idRemap, emit func(from, to uint32, prob float32) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return fmt.Errorf("graph: line %d: want at least 2 fields, got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return fmt.Errorf("graph: line %d: bad source id %q: %v", lineNo, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("graph: line %d: bad target id %q: %v", lineNo, fields[1], err)
		}
		p := float32(1)
		if len(fields) >= 3 {
			pf, err := strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return fmt.Errorf("graph: line %d: bad probability %q: %v", lineNo, fields[2], err)
			}
			p = float32(pf)
		}
		if u == v {
			continue
		}
		ui, vi := remap.id(u), remap.id(v)
		if err := emit(ui, vi, p); err != nil {
			return err
		}
		if undirected {
			if err := emit(vi, ui, p); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("graph: reading edge list: %w", err)
	}
	return nil
}

// LoadEdgeList reads a SNAP-style plain-text edge list: one "u v" or
// "u v p" line per edge, '#' or '%' comment lines ignored. Node ids are
// arbitrary non-negative integers and are remapped to a dense 0..n-1 range
// in first-appearance order. If undirected is true every line contributes
// both directions. Lines without a probability get probability 1; callers
// typically follow with AssignWeights to apply the paper's WC setting.
//
// Real SNAP datasets (the paper's Facebook/Google+/LiveJournal files) load
// through this function unchanged. A list with no edge (empty, comments
// or self-loops only) is refused, as ConvertEdgeListToSegmented refuses
// it.
func LoadEdgeList(r io.Reader, undirected bool) (*Graph, error) {
	var raw []Edge
	remap := make(idRemap)
	err := streamEdgeList(r, undirected, remap, func(from, to uint32, prob float32) error {
		raw = append(raw, Edge{From: from, To: to, Prob: prob})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("graph: the edge list holds no edges")
	}
	b := NewBuilderHint(len(remap), len(raw))
	for _, e := range raw {
		if err := b.AddEdge(e.From, e.To, e.Prob); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// ConvertEdgeListToSegmented streams a text edge list into a segmented
// graph file without materializing the edge list or the CSR in memory
// (peak RSS is the id remap plus the external-sort buffer). It scans the
// file twice: pass one discovers the dense id mapping and node count,
// pass two replays the same deterministic mapping into BuildSegmented.
func ConvertEdgeListToSegmented(srcPath, dstPath string, undirected bool, opt SegmentBuildOptions) (*SegBuildStats, error) {
	remap := make(idRemap)
	f, err := os.Open(srcPath)
	if err != nil {
		return nil, err
	}
	err = streamEdgeList(f, undirected, remap, func(from, to uint32, prob float32) error { return nil })
	f.Close()
	if err != nil {
		return nil, err
	}
	if len(remap) == 0 {
		return nil, fmt.Errorf("graph: %s holds no edges", srcPath)
	}
	return BuildSegmented(dstPath, len(remap), func(emit func(from, to uint32, prob float32) error) error {
		f, err := os.Open(srcPath)
		if err != nil {
			return err
		}
		defer f.Close()
		return streamEdgeList(f, undirected, remap, emit)
	}, opt)
}

// LoadEdgeListFile opens path and calls LoadEdgeList.
func LoadEdgeListFile(path string, undirected bool) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadEdgeList(f, undirected)
}

// WriteEdgeList writes the graph as a "u v p" text edge list.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var err error
	g.Edges(func(from, to uint32, prob float32) {
		if err != nil {
			return
		}
		_, err = fmt.Fprintf(bw, "%d %d %g\n", from, to, prob)
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// LoadOptions configures LoadAny.
type LoadOptions struct {
	// Undirected doubles every edge of a text edge list (ignored for the
	// segmented format, which stores directed edges).
	Undirected bool
	// Weights is the CLI weight setting: a ParseWeightModel name, or
	// "file" to keep the probabilities stored in the input.
	Weights  string
	UniformP float32 // UniformWeight's p
	Seed     uint64  // Trivalency's draw seed
	// Backend selects heap vs mmap materialization. Only the segmented
	// format supports BackendMmap; a text edge list is parsed onto the
	// heap.
	Backend Backend
}

// LoadAny loads a graph from either of the repository's on-disk formats,
// routed by extension — ".dsg" segmented, anything else a text edge list
// — and applies the requested weight model. It is the one loader the
// cmds share, so every binary resolves formats, backends and weights
// identically. A ".bin" path is refused: that legacy format is no longer
// read, and gengraph writes the graph again as a .dsg.
//
// For segmented files the weight model is reconciled against the tag
// baked into the header: a match (or Weights "file") uses the stored
// probabilities as-is — the path that keeps the mmap backend zero-copy —
// while a mismatch falls back to AssignWeights on a heap copy (mem
// backend only; reweighting a shared read-only mapping is refused with
// *MappedGraphError, since the result would silently not be the file on
// disk).
func LoadAny(path string, o LoadOptions) (*Graph, error) {
	if strings.HasSuffix(path, ".bin") {
		return nil, fmt.Errorf("graph: %s: the legacy .bin format is no longer read; write the graph again as a .dsg with gengraph (-nodes or -datasets to generate it, -convert to convert its edge list)", path)
	}
	var wm WeightModel
	if o.Weights != "file" && o.Weights != "" {
		var err error
		if wm, err = ParseWeightModel(o.Weights); err != nil {
			return nil, err
		}
	}
	if strings.HasSuffix(path, ".dsg") {
		g, err := OpenSegmented(path, o.Backend)
		if err != nil {
			return nil, err
		}
		if o.Weights == "file" || o.Weights == "" || wm.String() == g.WeightTag() {
			return g, nil
		}
		defer g.Close()
		if g.Mapped() {
			return nil, &MappedGraphError{Path: path, Op: fmt.Sprintf("reassigning %q weights over stored %q weights", o.Weights, g.WeightTag())}
		}
		return AssignWeights(g, wm, o.UniformP, o.Seed)
	}
	if o.Backend == BackendMmap {
		return nil, fmt.Errorf("graph: %s: the mmap backend requires the segmented format (convert with gengraph -convert %s -out graph.dsg)", path, path)
	}
	g, err := LoadEdgeListFile(path, o.Undirected)
	if err != nil {
		return nil, err
	}
	if o.Weights == "file" || o.Weights == "" {
		return g, nil
	}
	return AssignWeights(g, wm, o.UniformP, o.Seed)
}
