package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
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
// so fingerprinting a 100M-edge graph never re-reads the CSR. Graph.Close
// releases it; a finalizer frees one whose graph was dropped and counts
// it in offheap.Leaked.
type segState struct {
	path      string
	region    []byte // the mapping the CSR aliases; nil once released
	shared    bool   // region is the read-only file mapping (BackendMmap)
	inP       []byte // BackendMmap on a uniform-in file: the mapping inP aliases
	weightTag string
	crcs      [segSectionCount][]uint32

	// The out-CSR of a BackendMem graph is loaded on first use (see
	// Graph.loadOut): until then file stays open and layout says where
	// its sections lie. out is the mapping the loaded sections alias.
	outOnce   sync.Once
	file      *os.File
	layout    segLayout
	uniformIn bool
	out       []byte
}

// release unmaps the region and cancels the finalizer, so Close and
// Compact never free it twice. Idempotent.
func (s *segState) release() error {
	var errs []error
	if s.file != nil {
		errs = append(errs, s.file.Close())
		s.file = nil
	}
	errs = append(errs, offheap.Unmap(s.out))
	s.out = nil
	if data := s.region; data != nil {
		s.region = nil
		runtime.SetFinalizer(s, nil)
		if s.shared {
			errs = append(errs, unmapFile(data), offheap.Unmap(s.inP))
			s.inP = nil
		} else {
			errs = append(errs, offheap.Unmap(data))
		}
	}
	return errors.Join(errs...)
}

// leak is the finalizer of a segment state whose graph was dropped
// without Close: it counts every mapping it still holds as leaked, the
// file mapping of BackendMmap included, and releases them.
func (s *segState) leak() {
	offheap.RecordLeak(cap(s.region) + cap(s.out) + cap(s.inP))
	s.release()
}

// isProbSection reports the two per-edge probability sections, which a
// graph opened from a uniform-in file does not keep.
func isProbSection(kind int) bool { return kind == secOutProb || kind == secInProb }

// isOutSection reports the out-CSR's sections, which a mem open verifies
// but loads only on first use.
func isOutSection(kind int) bool { return kind <= secOutProb }

// segPlacement says where each section's payload sits in the region a
// graph aliases (-1 for a section it does not keep), and where inP sits
// when the region holds it (-1 otherwise).
type segPlacement struct {
	off    [segSectionCount]int64
	inPOff int64
}

// section returns the section kind as placed in the region.
func (p *segPlacement) section(l segLayout, kind int) segSection {
	s := l.sections[kind]
	s.off = p.off[kind]
	return s
}

// sidePlacement lays out a region holding the sections of one side of the CSR
// (the out-side when out is set, the in-side otherwise), page-aligned in
// file order. A uniform-in file's two probability sections are on
// neither: they are verified but not kept.
func sidePlacement(l segLayout, uniformIn, out bool) (p segPlacement, size int64) {
	p.inPOff = -1
	for kind, s := range l.sections {
		p.off[kind] = -1
		if isOutSection(kind) != out || uniformIn && isProbSection(kind) {
			continue
		}
		p.off[kind] = size
		size = alignUp(size + s.payloadBytes())
	}
	return p, size
}

// memPlacement lays out the region a mem open fills: the in-side
// sections, then inP for a uniform-in file. The out-side is placed by
// Graph.loadOut.
func memPlacement(hdr *segHeader) (p segPlacement, size int64) {
	p, size = sidePlacement(hdr.layout, hdr.uniformIn, false)
	if hdr.uniformIn {
		p.inPOff = size
		size += 4 * hdr.layout.n
	}
	return p, size
}

// OpenSegmented opens a segmented graph file with the given backend.
// Both backends return a *Graph with bit-identical accessor results;
// they differ only in residency (verified private copy vs demand-paged
// file mapping) and in how much integrity checking happens up front.
// A file whose header flags uniform in-probabilities opens compact
// (see Graph): neither backend keeps its two probability sections.
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
		layout:    hdr.layout,
		uniformIn: hdr.uniformIn,
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
	var place segPlacement
	switch backend {
	case BackendMem:
		seg.region, place, err = loadSegMem(f, path, hdr, seg)
		seg.file, f = f, nil // kept open for the out-side's first use
		g.outPending.Store(true)
	case BackendMmap:
		seg.region, err = loadSegMmap(f, path, hdr)
		seg.shared = true
		for kind, s := range hdr.layout.sections {
			place.off[kind] = s.off
		}
		place.inPOff = -1
	default:
		err = fmt.Errorf("graph: unknown backend %v", backend)
	}
	// A mapping outlives the descriptor: close it unless the mem backend
	// kept it.
	if f != nil {
		f.Close()
	}
	if err == nil {
		l := hdr.layout
		if backend == BackendMmap {
			g.aliasOut(seg.region, place)
		}
		g.inStart = mapInt64(seg.region, place.section(l, secInStart))
		g.inAdj = mapUint32(seg.region, place.section(l, secInAdj))
		g.inProbSum = mapFloat64(seg.region, place.section(l, secInProbSum))
		if !hdr.uniformIn {
			g.inProb = mapFloat32(seg.region, place.section(l, secInProb))
		}
		err = segSanity(path, g)
	}
	if err == nil && hdr.uniformIn {
		if place.inPOff >= 0 {
			g.inP = mapFloat32(seg.region, segSection{elemSize: 4, count: g.n, off: place.inPOff})
		} else {
			seg.inP, err = mmapInP(g, seg.region, hdr.layout.sections[secInProb])
			g.inP = mapFloat32(seg.inP, segSection{elemSize: 4, count: g.n})
		}
	}
	if err != nil {
		seg.release()
		return nil, err
	}
	runtime.SetFinalizer(seg, (*segState).leak)
	return g, nil
}

// loadSegMem copies the file's in-side sections into a private
// anonymous region, verifying every payload block against the trailer
// CRCs in place. Every other section is read and verified block by
// block through one scratch buffer instead: the out-side, whose offsets
// are held to (0, m) in the same pass, and the probability sections of
// a uniform-in file, whose in-probabilities are held to the header's
// flag in the same pass (each node's first slot fills inP). The region
// is returned even on error, for the caller to release.
func loadSegMem(f *os.File, path string, hdr *segHeader, seg *segState) ([]byte, segPlacement, error) {
	place, size := memPlacement(hdr)
	data, err := offheap.Map(int(size))
	if err != nil {
		return nil, place, fmt.Errorf("graph: mapping %d bytes for %s: %w", size, path, err)
	}
	var scratch []byte
	defer func() { offheap.Unmap(scratch) }()
	for kind, s := range hdr.layout.sections {
		if place.off[kind] >= 0 {
			if err := readSection(f, path, kind, s, seg.crcs[kind], data[place.off[kind]:]); err != nil {
				return data, place, err
			}
			continue
		}
		if scratch == nil {
			if scratch, err = offheap.Map(SegBlockSize); err != nil {
				return data, place, fmt.Errorf("graph: mapping a block buffer for %s: %w", path, err)
			}
		}
		var each func([]byte) error
		var span offsetSpan
		switch kind {
		case secOutStart:
			each = span.block
		case secInProb:
			each = (&inPCheck{
				path:  path,
				start: mapInt64(data, place.section(hdr.layout, secInStart)),
				inP:   mapFloat32(data, segSection{elemSize: 4, count: hdr.layout.n, off: place.inPOff}),
			}).block
		}
		if err := verifySection(f, path, kind, s, seg.crcs[kind], scratch, each); err != nil {
			return data, place, err
		}
		if kind == secOutStart {
			if err := span.check(path, "out", hdr.layout.m); err != nil {
				return data, place, err
			}
		}
	}
	return data, place, nil
}

// readSection reads one section's payload into the front of dst, checks
// every block against the trailer CRCs, and converts the elements to
// host order.
func readSection(f *os.File, path string, kind int, s segSection, crcs []uint32, dst []byte) error {
	payload := dst[:s.payloadBytes()]
	if _, err := f.ReadAt(payload, s.off); err != nil {
		return fmt.Errorf("graph: reading %s of %s: %w", secNames[kind], path, err)
	}
	for b, want := range crcs {
		block := payload[b*SegBlockSize : min((b+1)*SegBlockSize, len(payload))]
		if got := checksum.Sum(block); got != want {
			return csrChecksumError(path, secNames[kind], b, want, got)
		}
	}
	if !hostLittleEndian() {
		for i := 0; i < len(payload); i += s.elemSize {
			slices.Reverse(payload[i : i+s.elemSize])
		}
	}
	return nil
}

// aliasOut points the out-CSR slices at their sections in data.
func (g *Graph) aliasOut(data []byte, p segPlacement) {
	l := g.seg.layout
	g.outStart = mapInt64(data, p.section(l, secOutStart))
	g.outAdj = mapUint32(data, p.section(l, secOutAdj))
	if !g.seg.uniformIn {
		g.outProb = mapFloat32(data, p.section(l, secOutProb))
	}
}

// loadOut makes the out-CSR readable; every out-side read in this
// package calls it first. Only forward simulation, the writers and
// mutation read the out-side, so a mem open leaves it on disk, verified,
// and the first such read copies it into a mapping of its own: a
// process that only samples RR sets never holds it. The copy is checked
// against the trailer CRCs read at open, so a file rewritten in place
// since then panics here with its *sealed.Error rather than serving
// other bytes. After Close or Compact there is nothing left to load.
func (g *Graph) loadOut() {
	if g.outPending.Load() {
		g.loadOutOnce()
	}
}

// loadOutOnce is loadOut's slow path, apart so that the check inlines.
func (g *Graph) loadOutOnce() {
	s := g.seg
	s.outOnce.Do(func() {
		if s.file != nil { // not released
			if err := g.readOut(); err != nil {
				panic(err)
			}
			s.file.Close()
			s.file = nil
		}
		g.outPending.Store(false)
	})
}

// readOut copies the out-side sections from the file into their own
// mapping and aliases them.
func (g *Graph) readOut() error {
	s := g.seg
	p, size := sidePlacement(s.layout, s.uniformIn, true)
	data, err := offheap.Map(int(size))
	if err != nil {
		return fmt.Errorf("graph: mapping %d bytes for the out-CSR of %s: %w", size, s.path, err)
	}
	for kind, sec := range s.layout.sections {
		if p.off[kind] < 0 {
			continue
		}
		if err := readSection(s.file, s.path, kind, sec, s.crcs[kind], data[p.off[kind]:]); err != nil {
			offheap.Unmap(data)
			return err
		}
	}
	start := mapInt64(data, p.section(s.layout, secOutStart))
	if err := (offsetSpan{first: start[0], last: start[len(start)-1]}).check(s.path, "out", s.layout.m); err != nil {
		offheap.Unmap(data)
		return err
	}
	s.out = data
	g.aliasOut(data, p)
	return nil
}

// offsetSpan records the first and last entries of a CSR offset array
// streamed block by block.
type offsetSpan struct {
	first, last int64
	seen        bool
}

// block consumes the little-endian int64 offsets of one payload block.
func (o *offsetSpan) block(b []byte) error {
	if !o.seen {
		o.first, o.seen = int64(binary.LittleEndian.Uint64(b)), true
	}
	o.last = int64(binary.LittleEndian.Uint64(b[len(b)-8:]))
	return nil
}

// check holds the side's offsets to span [0, m].
func (o offsetSpan) check(path, side string, m int64) error {
	if o.first != 0 || o.last != m {
		return csrError(path, sealed.ErrFormat, "%s-CSR offsets span [%d,%d], want [0,%d]", side, o.first, o.last, m)
	}
	return nil
}

// verifySection reads one section's payload block by block into buf
// (SegBlockSize bytes), checks each block against its trailer CRC, and
// hands every verified block to each when it is not nil.
func verifySection(f *os.File, path string, kind int, s segSection, crcs []uint32, buf []byte, each func([]byte) error) error {
	remaining, off := s.payloadBytes(), s.off
	for b := 0; remaining > 0; b++ {
		chunk := min(int64(SegBlockSize), remaining)
		block := buf[:chunk]
		if _, err := f.ReadAt(block, off); err != nil {
			return fmt.Errorf("graph: reading %s block %d of %s: %w", secNames[kind], b, path, err)
		}
		if got := checksum.Sum(block); got != crcs[b] {
			return csrChecksumError(path, secNames[kind], b, crcs[b], got)
		}
		if each != nil {
			if err := each(block); err != nil {
				return err
			}
		}
		off += chunk
		remaining -= chunk
	}
	return nil
}

// inPCheck walks the in-probability section of a uniform-in file in slot
// order and holds it to the header's flag: a node's first slot gives its
// probability (stored in inP when that is not nil), and every later slot
// must carry the same bits, or the file is refused with ErrFormat. start
// is the in-CSR offset array, read before the section.
type inPCheck struct {
	path  string
	start []int64
	inP   []float32
	v     int64  // node owning the next slot
	slot  int64  // next slot
	first uint32 // bits of node v's first slot
}

// block consumes the little-endian float32 slots of one payload block.
func (c *inPCheck) block(b []byte) error {
	n := int64(len(c.start)) - 1
	for len(b) > 0 {
		for c.v < n && c.start[c.v+1] <= c.slot {
			c.v++
		}
		if c.v >= n {
			return csrError(c.path, sealed.ErrFormat, "in-probability slot %d lies past the in-CSR offsets", c.slot)
		}
		k := min(c.start[c.v+1]-c.slot, int64(len(b)/4))
		i := int64(0)
		if c.slot == c.start[c.v] {
			c.first = binary.LittleEndian.Uint32(b)
			if c.inP != nil {
				c.inP[c.v] = math.Float32frombits(c.first)
			}
			i = 1
		}
		for ; i < k; i++ {
			if bits := binary.LittleEndian.Uint32(b[4*i:]); bits != c.first {
				return csrError(c.path, sealed.ErrFormat, "header flags uniform in-probabilities, but in-edge %d of node %d carries %v, not %v",
					c.slot+i-c.start[c.v], c.v, math.Float32frombits(bits), math.Float32frombits(c.first))
			}
		}
		c.slot += k
		b = b[4*k:]
	}
	return nil
}

// mmapInP derives the per-node in-probabilities of a mapped uniform-in
// file without touching its probability sections: the float64 sum of d
// equal float32 values is exact while d < 2²⁹, so inProbSum[v]/d is the
// value itself. Only a node of larger in-degree reads its first slot.
// The result lives in its own off-heap mapping.
func mmapInP(g *Graph, region []byte, inProb segSection) ([]byte, error) {
	b, err := offheap.Map(int(4 * g.n))
	if err != nil {
		return nil, fmt.Errorf("graph: mapping in-probabilities of %s: %w", g.seg.path, err)
	}
	inP := mapFloat32(b, segSection{elemSize: 4, count: g.n})
	for v := range inP {
		lo, hi := g.inStart[v], g.inStart[v+1]
		switch d := hi - lo; {
		case d <= 0:
		case d < 1<<29:
			inP[v] = float32(g.inProbSum[v] / float64(d))
		case lo < g.m:
			inP[v] = mapFloat32(region, inProb)[lo]
		}
	}
	return b, nil
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
// any accessor can index out of range. A mem open checks the out-side's
// offsets as it streams them (loadSegMem).
func segSanity(path string, g *Graph) error {
	if g.outStart != nil {
		if err := (offsetSpan{first: g.outStart[0], last: g.outStart[g.n]}).check(path, "out", g.m); err != nil {
			return err
		}
	}
	return offsetSpan{first: g.inStart[0], last: g.inStart[g.n]}.check(path, "in", g.m)
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

// Close releases the region a segmented graph's CSR aliases — the file
// mapping (BackendMmap) or the verified private copy (BackendMem). It is
// the only release: a graph dropped without Close is freed by a
// finalizer and counted in offheap.Leaked. The graph must not be used
// afterwards. It also releases the per-edge
// probability mapping EnableMutation materialized on a compact graph.
// Graphs that own heap slices (built in memory, loaded from other
// formats, or compacted) otherwise ignore Close. Idempotent.
func (g *Graph) Close() error {
	if g.edgeProbs != nil {
		g.outProb, g.inProb = nil, nil
		g.edgeProbs.Free()
		g.edgeProbs = nil
	}
	if g.seg == nil || g.seg.region == nil {
		return nil
	}
	g.outStart, g.outAdj, g.outProb = nil, nil, nil
	g.inStart, g.inAdj, g.inProb = nil, nil, nil
	g.inProbSum, g.inP = nil, nil
	return g.seg.release()
}
