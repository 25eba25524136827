package graph

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"unsafe"

	"dimm/internal/checksum"
	"dimm/internal/offheap"
	"dimm/internal/sealed"
)

// Backend selects how a segmented graph file's payload is materialized.
type Backend int

const (
	// BackendMem reads the whole file, verifying every payload block CRC
	// on the way in — the safe default, byte-equivalent to building the
	// graph in memory. The copy lives in one private anonymous mapping
	// off the Go heap, aliased exactly as BackendMmap aliases the file,
	// so the GC neither scans the CSR nor reserves headroom for it.
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
// .dsg file: the source path, the region its CSR slices alias, and the
// per-block CRCs read from the file's trailers — which BaseHash reuses
// so fingerprinting a 100M-edge graph never re-reads the CSR. A
// finalizer on it releases the region once no Graph holds it.
type segState struct {
	path      string
	region    []byte // the mapping the CSR aliases; nil once released
	shared    bool   // region is the read-only file mapping (BackendMmap)
	weightTag string
	fileBytes int64
	csrBytes  int64
	crcs      [segSectionCount][]uint32
}

// privateRegions counts the live BackendMem regions. The GC's pacer never
// sees them, so a dropped graph's region would otherwise wait for a cycle
// the heap happens to trigger while a reopened copy is filled beside it.
var privateRegions atomic.Int64

// release unmaps the region and cancels the finalizer, so Close, Compact
// and the GC never free it twice. Idempotent.
func (s *segState) release() error {
	data := s.region
	if data == nil {
		return nil
	}
	s.region = nil
	runtime.SetFinalizer(s, nil)
	if s.shared {
		return unmapFile(data)
	}
	privateRegions.Add(-1)
	return offheap.Unmap(data)
}

// OpenSegmented opens a segmented graph file with the given backend.
// Both backends return a *Graph with bit-identical accessor results;
// they differ only in residency (verified private copy vs demand-paged
// file mapping) and in how much integrity checking happens up front.
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
		if privateRegions.Load() > 0 {
			runtime.GC() // lets finalizers release the regions of dropped graphs first
		}
		seg.region, err = loadSegMem(f, path, hdr, seg)
		if seg.region != nil {
			privateRegions.Add(1)
		}
	case BackendMmap:
		seg.region, err = loadSegMmap(f, path, hdr)
		seg.shared = true
	default:
		err = fmt.Errorf("graph: unknown backend %v", backend)
	}
	// The region outlives the descriptor; close it either way.
	f.Close()
	if err == nil {
		sec := hdr.layout.sections
		g.outStart = mapInt64(seg.region, sec[secOutStart])
		g.outAdj = mapUint32(seg.region, sec[secOutAdj])
		g.outProb = mapFloat32(seg.region, sec[secOutProb])
		g.inStart = mapInt64(seg.region, sec[secInStart])
		g.inAdj = mapUint32(seg.region, sec[secInAdj])
		g.inProb = mapFloat32(seg.region, sec[secInProb])
		g.inProbSum = mapFloat64(seg.region, sec[secInProbSum])
		err = segSanity(path, g)
	}
	if err != nil {
		seg.release()
		return nil, err
	}
	runtime.SetFinalizer(seg, (*segState).release)
	return g, nil
}

// loadSegMem copies the file into a private anonymous region, reading
// each section straight to its file offset and verifying every payload
// block against the trailer CRCs in place. The region is returned even
// on error, for the caller to release.
func loadSegMem(f *os.File, path string, hdr *segHeader, seg *segState) ([]byte, error) {
	data, err := offheap.Map(int(hdr.layout.fileSize))
	if err != nil {
		return nil, fmt.Errorf("graph: mapping %d bytes for %s: %w", hdr.layout.fileSize, path, err)
	}
	for kind, s := range hdr.layout.sections {
		payload := data[s.off : s.off+s.payloadBytes()]
		if _, err := f.ReadAt(payload, s.off); err != nil {
			return data, fmt.Errorf("graph: reading %s of %s: %w", secNames[kind], path, err)
		}
		for b, want := range seg.crcs[kind] {
			block := payload[b*SegBlockSize : min((b+1)*SegBlockSize, len(payload))]
			if got := checksum.Sum(block); got != want {
				return data, csrChecksumError(path, secNames[kind], b, want, got)
			}
		}
		if !hostLittleEndian() {
			for i := 0; i < len(payload); i += s.elemSize {
				slices.Reverse(payload[i : i+s.elemSize])
			}
		}
	}
	return data, nil
}

// loadSegMmap maps the file read-only. Section payloads are exact
// little-endian slice images at page-aligned offsets, so on a
// little-endian host the typed views are free.
func loadSegMmap(f *os.File, path string, hdr *segHeader) ([]byte, error) {
	if !hostLittleEndian() {
		return nil, fmt.Errorf("graph: mmap backend requires a little-endian host (use -graph-backend mem)")
	}
	data, err := mmapFile(f, hdr.layout.fileSize)
	if err != nil {
		return nil, fmt.Errorf("graph: mapping %s: %w", path, err)
	}
	// Sampling reads adjacency blocks in subset/frontier order, not
	// sequentially; tell readahead not to fault in whole runs.
	madviseRandom(data)
	return data, nil
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

// Mapped reports whether the graph's CSR aliases an mmap'ed file
// (BackendMmap). Mapped graphs are frozen: EnableMutation fails. A mem
// graph's private region is not Mapped: it is writable, and dropping
// its pages would zero it.
func (g *Graph) Mapped() bool { return g.seg != nil && g.seg.shared && g.seg.region != nil }

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

// Close releases the region a segmented graph's CSR aliases — the file
// mapping (BackendMmap) or the verified private copy (BackendMem) — at
// once instead of when the GC finds the graph unreachable. The graph
// must not be used afterwards. Graphs that own heap slices (built in
// memory, loaded from other formats, or compacted) ignore Close.
// Idempotent.
func (g *Graph) Close() error {
	if g.seg == nil || g.seg.region == nil {
		return nil
	}
	g.outStart, g.outAdj, g.outProb = nil, nil, nil
	g.inStart, g.inAdj, g.inProb = nil, nil, nil
	g.inProbSum = nil
	return g.seg.release()
}

// EvictFileCache drops a mapped graph's resident pages and then the
// file's page-cache pages (MADV_DONTNEED followed by
// POSIX_FADV_DONTNEED — the order matters: fadvise skips pages that are
// still mapped). Afterwards the next accesses refault from disk: the
// genuinely cold out-of-core regime, where residency regrowth is
// bounded by storage bandwidth instead of warm-cache fault-around. The
// fadvise half is best-effort (no-op off Linux). No-op unless Mapped.
func (g *Graph) EvictFileCache() error {
	if !g.Mapped() {
		return nil
	}
	if err := madviseDontneed(g.seg.region); err != nil {
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
// to bound peak RSS while sampling. No-op unless Mapped.
func (g *Graph) DropResidency() error {
	if !g.Mapped() {
		return nil
	}
	return madviseDontneed(g.seg.region)
}
