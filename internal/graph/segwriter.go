package graph

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"dimm/internal/checksum"
	"dimm/internal/sealed"
	"dimm/internal/xrand"
)

// Streaming segmented-CSR construction. The builder never materializes
// the edge list (or either CSR) in memory: edges are spooled to disk,
// stably external-sorted by source (for the out-CSR) and then by target
// (for the in-CSR), and each sorted drain is written straight into the
// section layout as sequential fixed-width blocks. Peak RSS is
// O(n + sort buffer), independent of m — the property that lets
// gengraph emit a 100M+ edge graph on a small-memory box.
//
// Bit-identity with the in-memory path is by construction. The heap
// Builder's counting sort is stable, so the out-CSR is the edge stream
// stably sorted by source, and AssignWeights re-feeds edges in exactly
// that order before a second stable sort — making the in-CSR the
// source-sorted stream stably re-sorted by target. The external sort
// below is stable for the same key order (stable runs + run-order
// merge), so every CSR slot, probability and float64 inProbSum
// accumulation lands in the same place with the same bits, which keeps
// xrand's positional coin streams — and therefore every sampled RR set
// — identical across the heap, mem-loaded and mmap'ed substrates.

// edgeRec is the external-sort record: key is the sort field (source
// for the out pass, target for the in pass), val the other endpoint.
type edgeRec struct {
	key, val uint32
	prob     float32
}

const edgeRecBytes = 12

// SegmentBuildOptions configures BuildSegmented.
type SegmentBuildOptions struct {
	// Weights applies a weight model to the streamed edges, replicating
	// heap-path AssignWeights bit for bit. With HasWeights false the
	// stream's own probabilities are kept (the "file" setting).
	Weights    WeightModel
	HasWeights bool
	UniformP   float32 // UniformWeight's p
	Seed       uint64  // Trivalency's draw seed
	// WeightTag is recorded in the header so loaders can tell which
	// model is baked in ("" defaults to the model name, or "file").
	WeightTag string
	// TempDir holds the spool and sort-run files (default: the output's
	// directory). They are removed on return.
	TempDir string
	// SortBufBytes bounds the in-RAM sort buffer (default 96 MiB; the
	// auxiliary radix buffer doubles it). Smaller values mean more runs,
	// not failures.
	SortBufBytes int
}

// SegBuildStats reports a BuildSegmented run.
type SegBuildStats struct {
	Nodes      int64
	Edges      int64
	FileBytes  int64
	CSRBytes   int64
	SpillBytes int64 // temp bytes written across spool + sort runs
	Runs       int
}

func (o SegmentBuildOptions) withDefaults() SegmentBuildOptions {
	if o.SortBufBytes <= 0 {
		o.SortBufBytes = 96 << 20
	}
	if o.SortBufBytes < edgeRecBytes*64 {
		o.SortBufBytes = edgeRecBytes * 64
	}
	if o.WeightTag == "" {
		if o.HasWeights {
			o.WeightTag = o.Weights.String()
		} else {
			o.WeightTag = "file"
		}
	}
	return o
}

// BuildSegmented streams the edges produced by src into a segmented CSR
// file at path, equivalent to feeding them through Builder.Build (plus
// AssignWeights when a model is set) and sealing the result — without
// ever holding the edges or the CSR in memory. src is invoked exactly
// once; emit applies the same validation as Builder.AddEdge. The file
// is published atomically (temp + fsync + rename).
func BuildSegmented(path string, n int, src func(emit func(from, to uint32, prob float32) error) error, opt SegmentBuildOptions) (*SegBuildStats, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: segmented build needs >= 1 node, got %d", n)
	}
	opt = opt.withDefaults()
	if opt.HasWeights && opt.Weights == UniformWeight && (opt.UniformP <= 0 || opt.UniformP > 1) {
		return nil, fmt.Errorf("graph: uniform probability %v outside (0,1]", opt.UniformP)
	}
	tempDir := opt.TempDir
	if tempDir == "" {
		tempDir = filepath.Dir(path)
	}
	bufRecs := opt.SortBufBytes / edgeRecBytes

	nn := int64(n)
	outDeg := make([]int64, nn+1) // shifted by one: prefix-summed into outStart
	inDeg := make([]int64, nn+1)

	// Pass A: drain the source once, counting degrees. With a weight
	// model the spool can go straight into source-sorted runs (the raw
	// order is only needed again when file probabilities are kept).
	var spool *rawSpool
	fromSorter := newExtSorter(tempDir, bufRecs)
	defer fromSorter.close()
	sink := func(r edgeRec) error { return fromSorter.add(r) }
	if !opt.HasWeights {
		var err error
		if spool, err = newRawSpool(tempDir); err != nil {
			return nil, err
		}
		defer spool.close()
		sink = spool.add
	}
	var m int64
	err := src(func(from, to uint32, prob float32) error {
		if int64(from) >= nn || int64(to) >= nn {
			return fmt.Errorf("graph: edge <%d,%d> out of range for %d nodes", from, to, n)
		}
		if from == to {
			return fmt.Errorf("graph: self-loop on node %d rejected", from)
		}
		if prob < 0 || prob > 1 || (prob != prob) {
			return fmt.Errorf("graph: edge <%d,%d> probability %v outside [0,1]", from, to, prob)
		}
		outDeg[from+1]++
		inDeg[to+1]++
		m++
		return sink(edgeRec{key: from, val: to, prob: prob})
	})
	if err != nil {
		return nil, err
	}

	layout := computeLayout(nn, m)
	tmp, err := sealed.Stage(path)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*SegBuildStats, error) {
		tmp.Abort()
		return nil, err
	}
	if err := tmp.Truncate(layout.fileSize); err != nil {
		return fail(fmt.Errorf("graph: sizing segmented graph: %w", err))
	}

	// Offsets: prefix sums of the degree counts, written as sections
	// straight from the O(n) arrays (the only arrays the build keeps
	// resident).
	for i := int64(0); i < nn; i++ {
		outDeg[i+1] += outDeg[i]
		inDeg[i+1] += inDeg[i]
	}
	if err := writeInt64Section(tmp.File, layout, secOutStart, outDeg); err != nil {
		return fail(err)
	}
	if err := writeInt64Section(tmp.File, layout, secInStart, inDeg); err != nil {
		return fail(err)
	}

	stats := &SegBuildStats{Nodes: nn, Edges: m, FileBytes: layout.fileSize, CSRBytes: layout.CSRBytes()}

	// Pass B: drain the source-sorted stream into the out-CSR sections,
	// assigning model probabilities in that order (the order heap-path
	// AssignWeights sees), and feed the target sorter with the
	// (possibly reweighted) records for pass C.
	if !opt.HasWeights {
		if err := spool.replay(func(r edgeRec) error { return fromSorter.add(r) }); err != nil {
			return fail(err)
		}
	}
	toSorter := newExtSorter(tempDir, bufRecs)
	defer toSorter.close()
	wAdj := newSectionWriter(tmp.File, layout.sections[secOutAdj])
	wProb := newSectionWriter(tmp.File, layout.sections[secOutProb])
	var triv *xrand.Rand
	if opt.HasWeights && opt.Weights == Trivalency {
		triv = xrand.New(opt.Seed)
	}
	trivChoices := [3]float32{0.1, 0.01, 0.001}
	err = fromSorter.merge(func(r edgeRec) error {
		p := r.prob
		if opt.HasWeights {
			switch opt.Weights {
			case WeightedCascade:
				// Identical expression to AssignWeights: 1/indeg(head)
				// in float32.
				p = float32(1.0) / float32(inDeg[r.val+1]-inDeg[r.val])
			case UniformWeight:
				p = opt.UniformP
			case Trivalency:
				p = trivChoices[triv.Intn(3)]
			default:
				return fmt.Errorf("graph: unknown weight model %v", opt.Weights)
			}
		}
		wAdj.putUint32(r.val)
		wProb.putFloat32(p)
		var src edgeRec
		if opt.HasWeights {
			src = edgeRec{key: r.val, val: r.key, prob: p}
		} else {
			// File probabilities: the in-CSR mirrors the RAW stream
			// order, so pass C resorts the spool, not this drain.
			return firstErr(wAdj.err, wProb.err)
		}
		return toSorter.add(src)
	})
	if err != nil {
		return fail(err)
	}
	if err := wAdj.finish(); err != nil {
		return fail(err)
	}
	if err := wProb.finish(); err != nil {
		return fail(err)
	}
	stats.SpillBytes += fromSorter.bytesSpilled()
	stats.Runs += len(fromSorter.runs)
	fromSorter.close()

	if !opt.HasWeights {
		if err := spool.replay(func(r edgeRec) error {
			return toSorter.add(edgeRec{key: r.val, val: r.key, prob: r.prob})
		}); err != nil {
			return fail(err)
		}
		spool.close()
	}

	// Pass C: drain the target-sorted stream into the in-CSR sections,
	// accumulating inProbSum in CSR slot order (bit-identical float64
	// order to finalize) and detecting per-node uniform weights.
	wInAdj := newSectionWriter(tmp.File, layout.sections[secInAdj])
	wInProb := newSectionWriter(tmp.File, layout.sections[secInProb])
	wSum := newSectionWriter(tmp.File, layout.sections[secInProbSum])
	uniform := true
	var cur int64 // next node whose inProbSum is unwritten
	var sum float64
	var first float32
	var seen bool
	closeNode := func(upto int64) {
		for cur < upto {
			wSum.putFloat64(sum)
			sum, seen = 0, false
			cur++
		}
	}
	err = toSorter.merge(func(r edgeRec) error {
		v := int64(r.key)
		if v < cur {
			return fmt.Errorf("graph: target sort emitted node %d after %d", v, cur)
		}
		closeNode(v)
		wInAdj.putUint32(r.val)
		wInProb.putFloat32(r.prob)
		sum += float64(r.prob)
		if !seen {
			first, seen = r.prob, true
		} else if math.Float32bits(r.prob) != math.Float32bits(first) {
			uniform = false
		}
		return firstErr(wInAdj.err, wInProb.err)
	})
	if err != nil {
		return fail(err)
	}
	closeNode(nn)
	if err := wInAdj.finish(); err != nil {
		return fail(err)
	}
	if err := wInProb.finish(); err != nil {
		return fail(err)
	}
	if err := wSum.finish(); err != nil {
		return fail(err)
	}
	stats.SpillBytes += toSorter.bytesSpilled()
	stats.Runs += len(toSorter.runs)
	if spool != nil {
		stats.SpillBytes += spool.bytes
	}

	// Header last: a crashed build leaves a file without a valid magic,
	// never a plausible graph. Then the sealed publish path.
	hdr, err := encodeHeader(layout, uniform, opt.WeightTag)
	if err != nil {
		return fail(err)
	}
	if _, err := tmp.WriteAt(hdr, 0); err != nil {
		return fail(fmt.Errorf("graph: writing segmented header: %w", err))
	}
	if err := tmp.Commit(); err != nil {
		return nil, err
	}
	return stats, nil
}

// WriteSegmentedFile seals an in-memory graph into the segmented format
// — the heap-path equivalent of BuildSegmented, producing byte-identical
// files for the same edge content. Mutated graphs must be sealed before
// their first ApplyUpdates (the format stores the base CSR only).
func WriteSegmentedFile(path string, g *Graph, weightTag string) error {
	if g.mut != nil && g.mut.version > 0 {
		return fmt.Errorf("graph: cannot seal a mutated graph (version %d) into a segmented file; seal the base before updates", g.mut.version)
	}
	tmp, err := sealed.Stage(path)
	if err != nil {
		return err
	}
	if err := encodeSegmented(tmp.File, g, weightTag); err != nil {
		tmp.Abort()
		return err
	}
	return tmp.Commit()
}

// encodeSegmented writes g's segmented image into f, unsynced.
func encodeSegmented(f *os.File, g *Graph, weightTag string) error {
	layout := computeLayout(g.n, g.m)
	if err := f.Truncate(layout.fileSize); err != nil {
		return fmt.Errorf("graph: sizing segmented graph: %w", err)
	}
	outProb, inProb := g.edgeProbArrays() // loads the out-side first
	if err := firstErr(
		writeInt64Section(f, layout, secOutStart, g.outStart),
		writeUint32Section(f, layout, secOutAdj, g.outAdj),
		writeFloat32Section(f, layout, secOutProb, outProb),
		writeInt64Section(f, layout, secInStart, g.inStart),
		writeUint32Section(f, layout, secInAdj, g.inAdj),
		writeFloat32Section(f, layout, secInProb, inProb),
		writeFloat64Section(f, layout, secInProbSum, g.inProbSum),
	); err != nil {
		return err
	}
	hdr, err := encodeHeader(layout, g.uniformIn, weightTag)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(hdr, 0); err != nil {
		return fmt.Errorf("graph: writing segmented header: %w", err)
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// sectionWriter streams fixed-width little-endian elements into one
// section at its layout offset, sealing a CRC32C per SegBlockSize block
// and the trailer behind the payload.
type sectionWriter struct {
	f    *os.File
	sec  segSection
	off  int64 // next payload write offset
	buf  []byte
	fill int
	crcs []uint32
	err  error
}

func newSectionWriter(f *os.File, sec segSection) *sectionWriter {
	return &sectionWriter{
		f:    f,
		sec:  sec,
		off:  sec.off,
		buf:  make([]byte, SegBlockSize),
		crcs: make([]uint32, 0, sec.nBlocks()),
	}
}

func (w *sectionWriter) flushBlock() {
	if w.err != nil || w.fill == 0 {
		return
	}
	block := w.buf[:w.fill]
	w.crcs = append(w.crcs, checksum.Sum(block))
	if _, err := w.f.WriteAt(block, w.off); err != nil {
		w.err = fmt.Errorf("graph: writing section at %d: %w", w.off, err)
		return
	}
	w.off += int64(w.fill)
	w.fill = 0
}

func (w *sectionWriter) putUint32(v uint32) {
	if w.fill == SegBlockSize {
		w.flushBlock()
	}
	binary.LittleEndian.PutUint32(w.buf[w.fill:], v)
	w.fill += 4
}

func (w *sectionWriter) putFloat32(v float32) { w.putUint32(math.Float32bits(v)) }

func (w *sectionWriter) putUint64(v uint64) {
	if w.fill == SegBlockSize {
		w.flushBlock()
	}
	binary.LittleEndian.PutUint64(w.buf[w.fill:], v)
	w.fill += 8
}

func (w *sectionWriter) putFloat64(v float64) { w.putUint64(math.Float64bits(v)) }

// finish flushes the tail block, validates the element count against
// the layout, and writes the CRC trailer.
func (w *sectionWriter) finish() error {
	w.flushBlock()
	if w.err != nil {
		return w.err
	}
	if got := w.off - w.sec.off; got != w.sec.payloadBytes() {
		return fmt.Errorf("graph: section payload %d bytes, layout declared %d", got, w.sec.payloadBytes())
	}
	trailer := make([]byte, w.sec.trailerBytes())
	for i, crc := range w.crcs {
		binary.LittleEndian.PutUint32(trailer[i*4:], crc)
	}
	binary.LittleEndian.PutUint32(trailer[len(trailer)-4:], checksum.Sum(trailer[:len(trailer)-4]))
	if _, err := w.f.WriteAt(trailer, w.sec.trailerOff()); err != nil {
		return fmt.Errorf("graph: writing section trailer: %w", err)
	}
	return nil
}

func writeInt64Section(f *os.File, l segLayout, kind int, vals []int64) error {
	w := newSectionWriter(f, l.sections[kind])
	for _, v := range vals {
		w.putUint64(uint64(v))
	}
	if err := w.finish(); err != nil {
		return fmt.Errorf("graph: section %s: %w", secNames[kind], err)
	}
	return nil
}

func writeUint32Section(f *os.File, l segLayout, kind int, vals []uint32) error {
	w := newSectionWriter(f, l.sections[kind])
	for _, v := range vals {
		w.putUint32(v)
	}
	if err := w.finish(); err != nil {
		return fmt.Errorf("graph: section %s: %w", secNames[kind], err)
	}
	return nil
}

func writeFloat32Section(f *os.File, l segLayout, kind int, vals []float32) error {
	w := newSectionWriter(f, l.sections[kind])
	for _, v := range vals {
		w.putFloat32(v)
	}
	if err := w.finish(); err != nil {
		return fmt.Errorf("graph: section %s: %w", secNames[kind], err)
	}
	return nil
}

func writeFloat64Section(f *os.File, l segLayout, kind int, vals []float64) error {
	w := newSectionWriter(f, l.sections[kind])
	for _, v := range vals {
		w.putFloat64(v)
	}
	if err := w.finish(); err != nil {
		return fmt.Errorf("graph: section %s: %w", secNames[kind], err)
	}
	return nil
}

// rawSpool is a plain on-disk record log preserving input order, used
// when file probabilities are kept and the in-CSR therefore needs the
// raw (not source-sorted) stream again.
type rawSpool struct {
	f     *os.File
	w     *bufio.Writer
	bytes int64
	n     int64
}

func newRawSpool(dir string) (*rawSpool, error) {
	f, err := os.CreateTemp(dir, "dimm-spool-*")
	if err != nil {
		return nil, fmt.Errorf("graph: creating edge spool: %w", err)
	}
	return &rawSpool{f: f, w: bufio.NewWriterSize(f, 1<<20)}, nil
}

func (s *rawSpool) add(r edgeRec) error {
	var b [edgeRecBytes]byte
	binary.LittleEndian.PutUint32(b[0:], r.key)
	binary.LittleEndian.PutUint32(b[4:], r.val)
	binary.LittleEndian.PutUint32(b[8:], math.Float32bits(r.prob))
	_, err := s.w.Write(b[:])
	s.bytes += edgeRecBytes
	s.n++
	return err
}

// replay streams the spool back in write order. Callable repeatedly.
func (s *rawSpool) replay(emit func(edgeRec) error) error {
	if err := s.w.Flush(); err != nil {
		return err
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	br := bufio.NewReaderSize(s.f, 1<<20)
	var b [edgeRecBytes]byte
	for i := int64(0); i < s.n; i++ {
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return fmt.Errorf("graph: reading edge spool: %w", err)
		}
		r := edgeRec{
			key:  binary.LittleEndian.Uint32(b[0:]),
			val:  binary.LittleEndian.Uint32(b[4:]),
			prob: math.Float32frombits(binary.LittleEndian.Uint32(b[8:])),
		}
		if err := emit(r); err != nil {
			return err
		}
	}
	return nil
}

func (s *rawSpool) close() {
	if s.f != nil {
		name := s.f.Name()
		s.f.Close()
		os.Remove(name)
		s.f = nil
	}
}

// extSorter is a stable external sorter of edgeRecs by key: records
// accumulate in a bounded buffer, each full buffer is stably
// radix-sorted and appended to a run file, and merge drains a run-order
// tie-breaking k-way heap — so equal keys come out in insertion order,
// exactly like the heap Builder's counting sort.
type extSorter struct {
	dir     string
	f       *os.File
	buf     []edgeRec
	aux     []edgeRec
	runs    []sortRun
	spilled int64
	closed  bool
}

type sortRun struct {
	off   int64
	count int64
}

func newExtSorter(dir string, bufRecs int) *extSorter {
	return &extSorter{dir: dir, buf: make([]edgeRec, 0, bufRecs)}
}

func (s *extSorter) add(r edgeRec) error {
	if len(s.buf) == cap(s.buf) {
		if err := s.flushRun(); err != nil {
			return err
		}
	}
	s.buf = append(s.buf, r)
	return nil
}

// radixSortByKey stably sorts buf by key with two 16-bit LSD counting
// passes through aux.
func radixSortByKey(buf, aux []edgeRec) {
	var count [1 << 16]int64
	for pass := 0; pass < 2; pass++ {
		shift := uint(pass * 16)
		for i := range count {
			count[i] = 0
		}
		for _, r := range buf {
			count[(r.key>>shift)&0xffff]++
		}
		var pos int64
		for i := range count {
			c := count[i]
			count[i] = pos
			pos += c
		}
		for _, r := range buf {
			b := (r.key >> shift) & 0xffff
			aux[count[b]] = r
			count[b]++
		}
		buf, aux = aux, buf
	}
	// Two passes: the sorted order ends back in the original buf.
}

func (s *extSorter) flushRun() error {
	if len(s.buf) == 0 {
		return nil
	}
	if s.aux == nil {
		s.aux = make([]edgeRec, cap(s.buf))
	}
	if s.f == nil {
		f, err := os.CreateTemp(s.dir, "dimm-sort-*")
		if err != nil {
			return fmt.Errorf("graph: creating sort run file: %w", err)
		}
		s.f = f
	}
	radixSortByKey(s.buf, s.aux[:len(s.buf)])
	w := bufio.NewWriterSize(io.NewOffsetWriter(s.f, s.spilled), 1<<20)
	var b [edgeRecBytes]byte
	for _, r := range s.buf {
		binary.LittleEndian.PutUint32(b[0:], r.key)
		binary.LittleEndian.PutUint32(b[4:], r.val)
		binary.LittleEndian.PutUint32(b[8:], math.Float32bits(r.prob))
		if _, err := w.Write(b[:]); err != nil {
			return fmt.Errorf("graph: writing sort run: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("graph: flushing sort run: %w", err)
	}
	s.runs = append(s.runs, sortRun{off: s.spilled, count: int64(len(s.buf))})
	s.spilled += int64(len(s.buf)) * edgeRecBytes
	s.buf = s.buf[:0]
	return nil
}

func (s *extSorter) bytesSpilled() int64 { return s.spilled }

// runReader streams one run with a small buffer.
type runReader struct {
	br   *bufio.Reader
	left int64
	head edgeRec
	idx  int
}

func (r *runReader) next() (bool, error) {
	if r.left == 0 {
		return false, nil
	}
	var b [edgeRecBytes]byte
	if _, err := io.ReadFull(r.br, b[:]); err != nil {
		return false, fmt.Errorf("graph: reading sort run: %w", err)
	}
	r.head = edgeRec{
		key:  binary.LittleEndian.Uint32(b[0:]),
		val:  binary.LittleEndian.Uint32(b[4:]),
		prob: math.Float32frombits(binary.LittleEndian.Uint32(b[8:])),
	}
	r.left--
	return true, nil
}

// mergeHeap orders run readers by (head key, run index): the run index
// tie-break plus in-run stability makes the global merge stable.
type mergeHeap []*runReader

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].head.key != h[j].head.key {
		return h[i].head.key < h[j].head.key
	}
	return h[i].idx < h[j].idx
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(*runReader)) }
func (h *mergeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// merge flushes the final run and drains all runs in stable key order.
// The sorter is spent afterwards (close releases the run file).
func (s *extSorter) merge(emit func(edgeRec) error) error {
	// Single-run fast path: everything fit in the buffer.
	if s.f == nil {
		if s.aux == nil {
			s.aux = make([]edgeRec, cap(s.buf))
		}
		radixSortByKey(s.buf, s.aux[:len(s.buf)])
		for _, r := range s.buf {
			if err := emit(r); err != nil {
				return err
			}
		}
		s.buf = s.buf[:0]
		return nil
	}
	if err := s.flushRun(); err != nil {
		return err
	}
	h := make(mergeHeap, 0, len(s.runs))
	for i, run := range s.runs {
		rr := &runReader{
			br:   bufio.NewReaderSize(io.NewSectionReader(s.f, run.off, run.count*edgeRecBytes), 256<<10),
			left: run.count,
			idx:  i,
		}
		ok, err := rr.next()
		if err != nil {
			return err
		}
		if ok {
			h = append(h, rr)
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		rr := h[0]
		if err := emit(rr.head); err != nil {
			return err
		}
		ok, err := rr.next()
		if err != nil {
			return err
		}
		if ok {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return nil
}

func (s *extSorter) close() {
	if s.closed {
		return
	}
	s.closed = true
	s.buf, s.aux = nil, nil
	if s.f != nil {
		name := s.f.Name()
		s.f.Close()
		os.Remove(name)
		s.f = nil
	}
}
