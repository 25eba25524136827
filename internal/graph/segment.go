package graph

import (
	"encoding/binary"
	"fmt"
	"os"

	"dimm/internal/checksum"
	"dimm/internal/sealed"
)

// Segmented on-disk CSR (".dsg"), the out-of-core graph substrate.
//
// One sectioned file holds seven flat arrays — out-CSR (offsets,
// targets, weights), in-CSR (offsets, tails, weights) and the per-node
// incoming probability sums — each as a page-aligned section of
// fixed-width little-endian elements followed by a CRC32C-per-block
// trailer. Because a section's payload is exactly the little-endian
// image of the corresponding slice, the file can either be copied,
// verified, into a private anonymous mapping (BackendMem) or mmap'ed
// read-only (BackendMmap), and the slices aliased in place; both produce
// a *Graph whose accessors return identical bytes, so every sampler,
// kernel and cluster worker runs on it unchanged. A file whose header
// flags uniform in-probabilities opens compact: the graph keeps one
// probability per node (Graph.InP) instead of the two weight sections.
// The OS pages adjacency blocks in on demand, which is what lets a
// 100M+ edge graph serve RR generation without the CSR being resident
// in RAM.
//
// File layout (all little-endian):
//
//	offset  size  field
//	0       4     magic "DSG1"
//	4       4     format version (1)
//	8       8     n (nodes)
//	16      8     m (directed edges)
//	24      4     CRC/hash block size (always 1 MiB in v1)
//	28      1     uniformIn flag (0 or 1)
//	29      1     weight tag length
//	30      16    weight tag ("wc", "file", ... zero padded)
//	46      2     zero pad
//	48      7×24  section table: kind u32, elemSize u32, count u64, offset u64
//	...     0     zero fill
//	4092    4     CRC32C over header[0:4092]
//
// The header is a 4 KiB sealed blob (internal/sealed), so it runs the
// same verify ladder as the store's files.
//
// Each section: payload at a 4096-aligned offset, then its trailer —
// one CRC32C per SegBlockSize payload block plus a final CRC32C over
// the trailer itself (so trailer corruption is distinguished from
// payload corruption). The next section starts at the next page
// boundary. Every field of the layout is a pure function of (n, m), so
// a reader recomputes it and any disagreement — including a short file
// — is detected before any payload is touched.
const (
	segMagic         = 0x31475344 // "DSG1"
	SegFormatVersion = 1
	// SegBlockSize is the CRC (and content-hash) block width. It is part
	// of the format: BaseHash hashes these per-block digests, so v1 pins
	// it rather than making it a knob.
	SegBlockSize    = 1 << 20
	segHeaderSize   = 4096
	segAlign        = 4096
	segWeightTagMax = 16
)

// segHeaderKind frames the fixed header: magic and version (8 bytes), the
// fields above and zero fill, then the 4-byte CRC32C footer.
var segHeaderKind = sealed.Kind{Name: "graph", Magic: segMagic, Version: SegFormatVersion, Header: segHeaderSize - 8 - 4}

// Section kinds, in file order.
const (
	secOutStart = iota
	secOutAdj
	secOutProb
	secInStart
	secInAdj
	secInProb
	secInProbSum
	segSectionCount
)

var secNames = [segSectionCount]string{
	"outStart", "outAdj", "outProb", "inStart", "inAdj", "inProb", "inProbSum",
}

// csrError reports damage to a segmented graph as the one corruption
// error every checksummed artifact shares (internal/sealed).
func csrError(path string, cause error, format string, args ...any) *sealed.Error {
	return sealed.Corrupt("graph", path, cause, format, args...)
}

// csrChecksumError reports a CRC32C mismatch in one payload block of a
// section, or in the section's CRC trailer (block -1).
func csrChecksumError(path, section string, block int, want, got uint32) *sealed.Error {
	return &sealed.Error{Artifact: "graph", Path: path, Section: section, Block: block,
		Cause: sealed.ErrChecksum, Detail: fmt.Sprintf("computed %#x, want %#x", got, want)}
}

// MappedGraphError reports an operation that would write through (or
// reassign) an mmap-backed graph's shared read-only mapping. The mmap
// backend serves frozen graphs; regenerate the file, or load with the
// mem backend, to get a mutable copy.
type MappedGraphError struct {
	Path string
	Op   string
}

func (e *MappedGraphError) Error() string {
	return fmt.Sprintf("graph: %s on the mmap-backed graph %s: the mapping is shared and read-only (load with -graph-backend mem, or regenerate the file)", e.Op, e.Path)
}

// segSection is one resolved section of the layout.
type segSection struct {
	elemSize int
	count    int64
	off      int64 // payload offset
}

func (s segSection) payloadBytes() int64 { return s.count * int64(s.elemSize) }

func (s segSection) nBlocks() int64 {
	return (s.payloadBytes() + SegBlockSize - 1) / SegBlockSize
}

// trailerOff is the file offset of the section's CRC trailer
// (nBlocks u32 CRCs + one u32 self-CRC).
func (s segSection) trailerOff() int64 { return s.off + s.payloadBytes() }

func (s segSection) trailerBytes() int64 { return (s.nBlocks() + 1) * 4 }

func alignUp(x int64) int64 { return (x + segAlign - 1) / segAlign * segAlign }

// segLayout is the full file layout for an (n, m) graph — a pure
// function of the two counts.
type segLayout struct {
	n, m     int64
	sections [segSectionCount]segSection
	fileSize int64
}

func computeLayout(n, m int64) segLayout {
	l := segLayout{n: n, m: m}
	sizes := [segSectionCount]struct {
		elem  int
		count int64
	}{
		{8, n + 1}, // outStart int64
		{4, m},     // outAdj uint32
		{4, m},     // outProb float32
		{8, n + 1}, // inStart int64
		{4, m},     // inAdj uint32
		{4, m},     // inProb float32
		{8, n},     // inProbSum float64
	}
	cur := int64(segHeaderSize)
	for i, s := range sizes {
		sec := segSection{elemSize: s.elem, count: s.count, off: cur}
		l.sections[i] = sec
		cur = alignUp(sec.trailerOff() + sec.trailerBytes())
	}
	l.fileSize = cur
	return l
}

// CSRBytes returns the total payload bytes of all sections — the size
// of the CSR proper, excluding headers, trailers and alignment. This is
// the figure the out-of-core bench compares peak RSS against.
func (l segLayout) CSRBytes() int64 {
	var t int64
	for _, s := range l.sections {
		t += s.payloadBytes()
	}
	return t
}

// encodeHeader serializes the fixed header, including its CRC.
func encodeHeader(l segLayout, uniformIn bool, weightTag string) ([]byte, error) {
	if len(weightTag) > segWeightTagMax {
		return nil, fmt.Errorf("graph: weight tag %q longer than %d bytes", weightTag, segWeightTagMax)
	}
	h := segHeaderKind.Begin(0)
	h = h[:cap(h)-4] // zero fill up to the footer
	binary.LittleEndian.PutUint64(h[8:], uint64(l.n))
	binary.LittleEndian.PutUint64(h[16:], uint64(l.m))
	binary.LittleEndian.PutUint32(h[24:], SegBlockSize)
	if uniformIn {
		h[28] = 1
	}
	h[29] = byte(len(weightTag))
	copy(h[30:30+segWeightTagMax], weightTag)
	off := 48
	for kind, s := range l.sections {
		binary.LittleEndian.PutUint32(h[off:], uint32(kind))
		binary.LittleEndian.PutUint32(h[off+4:], uint32(s.elemSize))
		binary.LittleEndian.PutUint64(h[off+8:], uint64(s.count))
		binary.LittleEndian.PutUint64(h[off+16:], uint64(s.off))
		off += 24
	}
	h, _ = sealed.Seal(h)
	return h, nil
}

// segHeader is a decoded and validated header.
type segHeader struct {
	layout    segLayout
	uniformIn bool
	weightTag string
}

// decodeHeader validates the fixed header bytes against the layout
// implied by their (n, m) and returns the decoded form: the sealed
// ladder (CRC32C, magic, version), then structural consistency.
func decodeHeader(path string, h []byte) (*segHeader, error) {
	if _, _, err := segHeaderKind.Open(h); err != nil {
		se := err.(*sealed.Error)
		se.Path, se.Section = path, "header"
		return nil, se
	}
	n := int64(binary.LittleEndian.Uint64(h[8:]))
	m := int64(binary.LittleEndian.Uint64(h[16:]))
	if n < 0 || n > 1<<32 || m < 0 {
		return nil, csrError(path, sealed.ErrFormat, "impossible counts n=%d m=%d", n, m)
	}
	if bs := binary.LittleEndian.Uint32(h[24:]); bs != SegBlockSize {
		return nil, csrError(path, sealed.ErrFormat, "block size %d, v1 requires %d", bs, SegBlockSize)
	}
	if h[28] > 1 {
		return nil, csrError(path, sealed.ErrFormat, "uniform-in flag %d, want 0 or 1", h[28])
	}
	tagLen := int(h[29])
	if tagLen > segWeightTagMax {
		return nil, csrError(path, sealed.ErrFormat, "weight tag length %d exceeds %d", tagLen, segWeightTagMax)
	}
	hdr := &segHeader{
		layout:    computeLayout(n, m),
		uniformIn: h[28] == 1,
		weightTag: string(h[30 : 30+tagLen]),
	}
	// The section table is redundant with (n, m); require exact agreement
	// so a reader never trusts offsets a flipped-then-refitted header
	// could smuggle in.
	off := 48
	for kind, s := range hdr.layout.sections {
		if k := binary.LittleEndian.Uint32(h[off:]); k != uint32(kind) {
			return nil, csrError(path, sealed.ErrFormat, "section %d has kind %d", kind, k)
		}
		if es := binary.LittleEndian.Uint32(h[off+4:]); es != uint32(s.elemSize) {
			return nil, csrError(path, sealed.ErrFormat, "section %s element size %d, want %d", secNames[kind], es, s.elemSize)
		}
		if c := binary.LittleEndian.Uint64(h[off+8:]); c != uint64(s.count) {
			return nil, csrError(path, sealed.ErrFormat, "section %s count %d, want %d", secNames[kind], c, s.count)
		}
		if o := binary.LittleEndian.Uint64(h[off+16:]); o != uint64(s.off) {
			return nil, csrError(path, sealed.ErrFormat, "section %s offset %d, want %d", secNames[kind], o, s.off)
		}
		off += 24
	}
	return hdr, nil
}

// readHeader reads and validates the header and the file size.
func readHeader(f *os.File, path string) (*segHeader, error) {
	buf := make([]byte, segHeaderSize)
	if _, err := f.ReadAt(buf, 0); err != nil {
		st, serr := f.Stat()
		if serr == nil && st.Size() < segHeaderSize {
			return nil, csrError(path, sealed.ErrTruncated, "%d bytes, the header alone is %d", st.Size(), segHeaderSize)
		}
		return nil, fmt.Errorf("graph: reading segmented header of %s: %w", path, err)
	}
	hdr, err := decodeHeader(path, buf)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("graph: stat %s: %w", path, err)
	}
	if st.Size() != hdr.layout.fileSize {
		return nil, csrError(path, sealed.ErrTruncated, "%d bytes, the header declares %d", st.Size(), hdr.layout.fileSize)
	}
	return hdr, nil
}

// readTrailer reads one section's CRC trailer, verifies its self-CRC,
// and returns the per-block payload CRCs.
func readTrailer(f *os.File, path string, kind int, s segSection) ([]uint32, error) {
	raw := make([]byte, s.trailerBytes())
	if _, err := f.ReadAt(raw, s.trailerOff()); err != nil {
		return nil, fmt.Errorf("graph: reading %s trailer of %s: %w", secNames[kind], path, err)
	}
	body := raw[:len(raw)-4]
	want := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if got := checksum.Sum(body); got != want {
		return nil, csrChecksumError(path, secNames[kind], -1, want, got)
	}
	crcs := make([]uint32, s.nBlocks())
	for i := range crcs {
		crcs[i] = binary.LittleEndian.Uint32(body[i*4:])
	}
	return crcs, nil
}

// SegInfo describes a segmented graph file without loading its payload.
type SegInfo struct {
	Path      string
	Nodes     int64
	Edges     int64
	UniformIn bool
	WeightTag string
	FileBytes int64
	// CSRBytes is the payload of all seven sections, the file's CSR
	// proper and the out-of-core RSS comparison base. A graph opened
	// from a uniform-in file holds less (Graph.CSRBytes).
	CSRBytes int64
	Blocks   int64 // CRC blocks across all sections
}

// StatSegmented reads and validates a segmented graph's header without
// touching any payload, and returns its description.
func StatSegmented(path string) (*SegInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	hdr, err := readHeader(f, path)
	if err != nil {
		return nil, err
	}
	info := &SegInfo{
		Path:      path,
		Nodes:     hdr.layout.n,
		Edges:     hdr.layout.m,
		UniformIn: hdr.uniformIn,
		WeightTag: hdr.weightTag,
		FileBytes: hdr.layout.fileSize,
		CSRBytes:  hdr.layout.CSRBytes(),
	}
	for _, s := range hdr.layout.sections {
		info.Blocks += s.nBlocks()
	}
	return info, nil
}

// VerifySegmented reads every payload block of every section and checks
// it against the CRC trailers — the full integrity pass (a sequential
// read of the whole file; OpenSegmented with the mmap backend
// deliberately skips it so opening stays O(header+trailers+nodes)). A
// uniform-in file's in-probabilities are also held to its flag, as the
// mem backend holds them.
func VerifySegmented(path string) (*SegInfo, error) {
	info, err := StatSegmented(path)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	hdr, err := readHeader(f, path)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, SegBlockSize)
	var start []int64 // the in-CSR offsets, kept for the flag check
	for kind, s := range hdr.layout.sections {
		crcs, err := readTrailer(f, path, kind, s)
		if err != nil {
			return nil, err
		}
		var each func([]byte) error
		switch {
		case !hdr.uniformIn:
		case kind == secInStart:
			start = make([]int64, 0, s.count)
			each = func(b []byte) error {
				for ; len(b) >= 8; b = b[8:] {
					start = append(start, int64(binary.LittleEndian.Uint64(b)))
				}
				return nil
			}
		case kind == secInProb:
			each = (&inPCheck{path: path, start: start}).block
		}
		if err := verifySection(f, path, kind, s, crcs, buf, each); err != nil {
			return nil, err
		}
	}
	return info, nil
}
