package graph

import (
	"encoding/binary"
	"fmt"
	"os"
	"unsafe"

	"dimm/internal/checksum"
	"dimm/internal/sealed"
)

// Backend selects how a segmented graph file's payload is materialized.
type Backend int

const (
	// BackendMem reads the whole file into heap slices, verifying every
	// payload block CRC on the way in — the safe default, byte-equivalent
	// to building the graph in memory.
	BackendMem Backend = iota
	// BackendMmap maps the file read-only and aliases the CSR slices
	// directly onto the mapping: opening is O(header + trailers), the OS
	// pages adjacency blocks in on demand, and the CSR is never resident
	// in RAM beyond what sampling actually touches. Payload CRCs are not
	// pre-verified (that would read the whole file, defeating the point);
	// run VerifySegmented separately when integrity matters more than
	// open latency.
	BackendMmap
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case BackendMem:
		return "mem"
	case BackendMmap:
		return "mmap"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend converts the CLI's -graph-backend value.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "mem":
		return BackendMem, nil
	case "mmap":
		return BackendMmap, nil
	default:
		return 0, fmt.Errorf("graph: unknown graph backend %q (want mem|mmap)", s)
	}
}

// segState is the segmented-file provenance of a Graph opened from a
// .dsg file: the source path, the mapping (mmap backend only), and the
// per-block CRCs read from the file's trailers — which BaseHash reuses
// so fingerprinting a 100M-edge graph never re-reads the CSR.
type segState struct {
	path      string
	mapped    []byte // non-nil iff the payload aliases an mmap region
	weightTag string
	fileBytes int64
	csrBytes  int64
	crcs      [segSectionCount][]uint32
}

// OpenSegmented opens a segmented graph file with the given backend.
// Both backends return a *Graph with bit-identical accessor results;
// they differ only in residency (heap copy vs demand-paged mapping) and
// in how much integrity checking happens up front.
func OpenSegmented(path string, backend Backend) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	hdr, err := readHeader(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	seg := &segState{
		path:      path,
		weightTag: hdr.weightTag,
		fileBytes: hdr.layout.fileSize,
		csrBytes:  hdr.layout.CSRBytes(),
	}
	for kind, s := range hdr.layout.sections {
		crcs, err := readTrailer(f, path, kind, s)
		if err != nil {
			f.Close()
			return nil, err
		}
		seg.crcs[kind] = crcs
	}
	g := &Graph{
		n:         hdr.layout.n,
		m:         hdr.layout.m,
		uniformIn: hdr.uniformIn,
		seg:       seg,
	}
	switch backend {
	case BackendMem:
		err = loadSegMem(f, path, hdr, seg, g)
		f.Close()
	case BackendMmap:
		err = loadSegMmap(f, path, hdr, seg, g)
		// The mapping outlives the descriptor; close it either way.
		f.Close()
	default:
		f.Close()
		err = fmt.Errorf("graph: unknown backend %v", backend)
	}
	if err != nil {
		return nil, err
	}
	return g, nil
}

// loadSegMem reads every section into heap slices, verifying each
// payload block against the trailer CRCs as it streams.
func loadSegMem(f *os.File, path string, hdr *segHeader, seg *segState, g *Graph) error {
	n, m := hdr.layout.n, hdr.layout.m
	g.outStart = make([]int64, n+1)
	g.outAdj = make([]uint32, m)
	g.outProb = make([]float32, m)
	g.inStart = make([]int64, n+1)
	g.inAdj = make([]uint32, m)
	g.inProb = make([]float32, m)
	g.inProbSum = make([]float64, n)

	buf := make([]byte, SegBlockSize)
	read := func(kind int, decode func(block []byte, elem int64)) error {
		s := hdr.layout.sections[kind]
		remaining := s.payloadBytes()
		off := s.off
		var elem int64
		for b := 0; remaining > 0; b++ {
			chunk := int64(SegBlockSize)
			if chunk > remaining {
				chunk = remaining
			}
			if _, err := f.ReadAt(buf[:chunk], off); err != nil {
				return fmt.Errorf("graph: reading %s block %d of %s: %w", secNames[kind], b, path, err)
			}
			if got := checksum.Sum(buf[:chunk]); got != seg.crcs[kind][b] {
				return csrChecksumError(path, secNames[kind], b, seg.crcs[kind][b], got)
			}
			decode(buf[:chunk], elem)
			elem += chunk / int64(s.elemSize)
			off += chunk
			remaining -= chunk
		}
		return nil
	}
	dst64 := func(out []int64) func([]byte, int64) {
		return func(block []byte, elem int64) {
			for i := 0; i < len(block); i += 8 {
				out[elem] = int64(binary.LittleEndian.Uint64(block[i:]))
				elem++
			}
		}
	}
	dst32 := func(out []uint32) func([]byte, int64) {
		return func(block []byte, elem int64) {
			for i := 0; i < len(block); i += 4 {
				out[elem] = binary.LittleEndian.Uint32(block[i:])
				elem++
			}
		}
	}
	if err := read(secOutStart, dst64(g.outStart)); err != nil {
		return err
	}
	if err := read(secOutAdj, dst32(g.outAdj)); err != nil {
		return err
	}
	if err := read(secOutProb, dst32(asUint32Slice(g.outProb))); err != nil {
		return err
	}
	if err := read(secInStart, dst64(g.inStart)); err != nil {
		return err
	}
	if err := read(secInAdj, dst32(g.inAdj)); err != nil {
		return err
	}
	if err := read(secInProb, dst32(asUint32Slice(g.inProb))); err != nil {
		return err
	}
	if err := read(secInProbSum, dst64(asInt64Slice(g.inProbSum))); err != nil {
		return err
	}
	return segSanity(path, g)
}

// loadSegMmap maps the file and aliases the seven slices in place.
// Section payloads are exact little-endian slice images at page-aligned
// offsets, so on a little-endian host the typed views are free.
func loadSegMmap(f *os.File, path string, hdr *segHeader, seg *segState, g *Graph) error {
	if !hostLittleEndian() {
		return fmt.Errorf("graph: mmap backend requires a little-endian host (use -graph-backend mem)")
	}
	data, err := mmapFile(f, hdr.layout.fileSize)
	if err != nil {
		return fmt.Errorf("graph: mapping %s: %w", path, err)
	}
	seg.mapped = data
	// Sampling reads adjacency blocks in subset/frontier order, not
	// sequentially; tell readahead not to fault in whole runs.
	madviseRandom(data)
	sec := hdr.layout.sections
	g.outStart = mapInt64(data, sec[secOutStart])
	g.outAdj = mapUint32(data, sec[secOutAdj])
	g.outProb = mapFloat32(data, sec[secOutProb])
	g.inStart = mapInt64(data, sec[secInStart])
	g.inAdj = mapUint32(data, sec[secInAdj])
	g.inProb = mapFloat32(data, sec[secInProb])
	g.inProbSum = mapFloat64(data, sec[secInProbSum])
	if err := segSanity(path, g); err != nil {
		g.Close()
		return err
	}
	return nil
}

// segSanity cross-checks the CSR offset arrays against (n, m) — cheap
// structural validation that catches a coherent-but-wrong file before
// any accessor can index out of range.
func segSanity(path string, g *Graph) error {
	if g.outStart[0] != 0 || g.outStart[g.n] != g.m {
		return csrError(path, sealed.ErrFormat, "out-CSR offsets span [%d,%d], want [0,%d]", g.outStart[0], g.outStart[g.n], g.m)
	}
	if g.inStart[0] != 0 || g.inStart[g.n] != g.m {
		return csrError(path, sealed.ErrFormat, "in-CSR offsets span [%d,%d], want [0,%d]", g.inStart[0], g.inStart[g.n], g.m)
	}
	return nil
}

func hostLittleEndian() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

func mapInt64(data []byte, s segSection) []int64 {
	if s.count == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&data[s.off])), s.count)
}

func mapUint32(data []byte, s segSection) []uint32 {
	if s.count == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&data[s.off])), s.count)
}

func mapFloat32(data []byte, s segSection) []float32 {
	if s.count == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&data[s.off])), s.count)
}

func mapFloat64(data []byte, s segSection) []float64 {
	if s.count == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&data[s.off])), s.count)
}

func asUint32Slice(f []float32) []uint32 {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&f[0])), len(f))
}

func asInt64Slice(f []float64) []int64 {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&f[0])), len(f))
}

// Mapped reports whether the graph's CSR aliases an mmap'ed file
// (BackendMmap). Mapped graphs are frozen: EnableMutation fails.
func (g *Graph) Mapped() bool { return g.seg != nil && g.seg.mapped != nil }

// SegPath returns the segmented file this graph was opened from, or ""
// for graphs built or loaded from other formats.
func (g *Graph) SegPath() string {
	if g.seg == nil {
		return ""
	}
	return g.seg.path
}

// WeightTag returns the weight model baked into the segmented file
// ("wc", "uniform", "trivalency", "file"), or "" for non-segmented
// graphs.
func (g *Graph) WeightTag() string {
	if g.seg == nil {
		return ""
	}
	return g.seg.weightTag
}

// CSRBytes returns the byte size of the seven CSR arrays — the base an
// out-of-core bench compares peak RSS against. It is identical for the
// heap and mapped forms of the same graph.
func (g *Graph) CSRBytes() int64 {
	if g.seg != nil {
		return g.seg.csrBytes
	}
	return computeLayout(g.n, g.m).CSRBytes()
}

// Close releases the mmap mapping, if any. The graph must not be used
// afterwards (its slices alias the unmapped region). Heap-backed graphs
// ignore Close. Idempotent.
func (g *Graph) Close() error {
	if g.seg == nil || g.seg.mapped == nil {
		return nil
	}
	data := g.seg.mapped
	g.seg.mapped = nil
	g.outStart, g.outAdj, g.outProb = nil, nil, nil
	g.inStart, g.inAdj, g.inProb = nil, nil, nil
	g.inProbSum = nil
	return munmapFile(data)
}

// EvictFileCache drops a mapped graph's resident pages and then the
// file's page-cache pages (MADV_DONTNEED followed by
// POSIX_FADV_DONTNEED — the order matters: fadvise skips pages that are
// still mapped). Afterwards the next accesses refault from disk: the
// genuinely cold out-of-core regime, where residency regrowth is
// bounded by storage bandwidth instead of warm-cache fault-around. The
// fadvise half is best-effort (no-op off Linux). No-op for heap-backed
// graphs.
func (g *Graph) EvictFileCache() error {
	if g.seg == nil || g.seg.mapped == nil {
		return nil
	}
	if err := madviseDontneed(g.seg.mapped); err != nil {
		return err
	}
	f, err := os.Open(g.seg.path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fadviseDontneed(f, g.seg.fileBytes)
}

// DropResidency asks the OS to discard the resident pages of a mapped
// graph (MADV_DONTNEED on the read-only shared mapping: PTEs and RSS
// accounting go away; the data stays safe in the file and page cache,
// and re-access refaults it on demand). The out-of-core bench uses it
// to bound peak RSS while sampling. No-op for heap-backed graphs.
func (g *Graph) DropResidency() error {
	if g.seg == nil || g.seg.mapped == nil {
		return nil
	}
	return madviseDontneed(g.seg.mapped)
}
