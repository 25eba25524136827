package graph

import (
	"bufio"
	"encoding/binary"
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
// through this function unchanged.
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

// Binary format: a fixed header followed by the out-CSR arrays. The in-CSR
// is reconstructed on load (it is a deterministic function of the edges).
// Magic distinguishes the file from text edge lists and guards endianness.
const binaryMagic = 0x44494d31 // "DIM1"

// WriteBinary writes g in the repository's compact binary format, which
// loads an order of magnitude faster than text for large graphs.
func WriteBinary(w io.Writer, g *Graph) error {
	g.loadOut()
	bw := bufio.NewWriterSize(w, 1<<20)
	hdr := []uint64{binaryMagic, uint64(g.n), uint64(g.m)}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.outStart); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.outAdj); err != nil {
		return err
	}
	outProb, _ := g.edgeProbArrays()
	if err := binary.Write(bw, binary.LittleEndian, outProb); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary loads a graph written by WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic, n, m uint64
	for _, p := range []*uint64{&magic, &n, &m} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("graph: reading binary header: %w", err)
		}
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %#x (not a DIM1 binary graph)", magic)
	}
	if n > 1<<32 {
		return nil, fmt.Errorf("graph: node count %d exceeds uint32 id space", n)
	}
	g := &Graph{
		n:         int64(n),
		m:         int64(m),
		outStart:  make([]int64, n+1),
		outAdj:    make([]uint32, m),
		outProb:   make([]float32, m),
		inStart:   make([]int64, n+1),
		inAdj:     make([]uint32, m),
		inProb:    make([]float32, m),
		inProbSum: make([]float64, n),
	}
	if err := binary.Read(br, binary.LittleEndian, g.outStart); err != nil {
		return nil, fmt.Errorf("graph: reading outStart: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, g.outAdj); err != nil {
		return nil, fmt.Errorf("graph: reading outAdj: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, g.outProb); err != nil {
		return nil, fmt.Errorf("graph: reading outProb: %w", err)
	}
	if g.outStart[0] != 0 || g.outStart[n] != int64(m) {
		return nil, fmt.Errorf("graph: corrupt CSR offsets")
	}
	// Rebuild in-CSR.
	for i := int64(0); i < g.m; i++ {
		g.inStart[g.outAdj[i]+1]++
	}
	for v := int64(0); v < g.n; v++ {
		g.inStart[v+1] += g.inStart[v]
	}
	pos := make([]int64, n)
	for u := int64(0); u < g.n; u++ {
		lo, hi := g.outStart[u], g.outStart[u+1]
		if hi < lo || hi > int64(m) {
			return nil, fmt.Errorf("graph: corrupt CSR segment for node %d", u)
		}
		for i := lo; i < hi; i++ {
			v := g.outAdj[i]
			if int64(v) >= g.n {
				return nil, fmt.Errorf("graph: edge head %d out of range", v)
			}
			ip := g.inStart[v] + pos[v]
			g.inAdj[ip] = uint32(u)
			g.inProb[ip] = g.outProb[i]
			pos[v]++
		}
	}
	g.finalize()
	return g, nil
}

// WriteBinaryFile writes g to path in binary format.
func WriteBinaryFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBinaryFile loads a binary graph from path.
func ReadBinaryFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}

// LoadOptions configures LoadAny.
type LoadOptions struct {
	// Undirected doubles every edge of a text edge list (ignored for the
	// binary and segmented formats, which store directed edges).
	Undirected bool
	// Weights is the CLI weight setting: a ParseWeightModel name, or
	// "file" to keep the probabilities stored in the input.
	Weights  string
	UniformP float32 // UniformWeight's p
	Seed     uint64  // Trivalency's draw seed
	// Backend selects heap vs mmap materialization. Only the segmented
	// format supports BackendMmap; the legacy formats must rebuild the
	// in-CSR on load, which is inherently a heap operation.
	Backend Backend
}

// LoadAny loads a graph from any of the repository's on-disk formats,
// routed by extension — ".dsg" segmented, ".bin" legacy binary, anything
// else a text edge list — and applies the requested weight model. It is
// the one loader the cmds share, so every binary resolves formats,
// backends and weights identically.
//
// For segmented files the weight model is reconciled against the tag
// baked into the header: a match (or Weights "file") uses the stored
// probabilities as-is — the path that keeps the mmap backend zero-copy —
// while a mismatch falls back to AssignWeights on a heap copy (mem
// backend only; reweighting a shared read-only mapping is refused with
// *MappedGraphError, since the result would silently not be the file on
// disk).
func LoadAny(path string, o LoadOptions) (*Graph, error) {
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
	var g *Graph
	var err error
	if strings.HasSuffix(path, ".bin") {
		g, err = ReadBinaryFile(path)
	} else {
		g, err = LoadEdgeListFile(path, o.Undirected)
	}
	if err != nil {
		return nil, err
	}
	if o.Weights == "file" || o.Weights == "" {
		return g, nil
	}
	return AssignWeights(g, wm, o.UniformP, o.Seed)
}
