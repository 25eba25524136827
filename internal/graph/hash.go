package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"dimm/internal/checksum"
)

// ContentHash returns a stable fingerprint of the graph's content at its
// current version. For a frozen (or never-mutated) graph it is the base
// hash (see BaseHash). After ApplyUpdates it is the chained hash
// SHA-256(previous hash ‖ batch), recomputed per batch — so a mutation
// always changes the reported hash, and two graphs hash equal iff they
// took the same base through the same update history.
//
// The hash pins checkpoints (internal/store fingerprints) and caches to
// the exact substrate they were computed on.
func (g *Graph) ContentHash() string {
	if g.mut != nil && g.mut.version > 0 {
		return g.mut.hash
	}
	return g.BaseHash()
}

// BaseHash returns the version-0 content hash — the fingerprint of the
// graph as built, before any mutation: "sha256:" + hex of a SHA-256 over
// the node/edge counts and the per-SegBlockSize-block CRC32C digests of
// the out-CSR sections (offsets, targets, probabilities), exactly the
// digests a segmented file stores in its trailers. Hashing block digests
// instead of raw arrays means a graph opened from a .dsg file — mem or
// mmap backend — fingerprints in O(blocks) without re-reading (or, for
// mmap, ever faulting in) the CSR payload, while heap-built graphs
// stream their slices through the same per-block CRCs and land on the
// same value. The in-CSR is excluded: it is a derived view of the same
// edges, and excluding it keeps the hash stable across in-bucket
// reorderings that cannot change the edge multiset.
//
// It is memoized; call it before the first ApplyUpdates so the streamed
// bytes describe version 0. Store fingerprints use it so a checkpoint
// plus its recorded graph-delta segments remains restorable onto a
// freshly loaded base graph.
func (g *Graph) BaseHash() string {
	g.hashOnce.Do(func() {
		h := sha256.New()
		var hdr [8]byte
		h.Write([]byte("dimm-graph-v2"))
		binary.LittleEndian.PutUint64(hdr[:], uint64(g.n))
		h.Write(hdr[:])
		binary.LittleEndian.PutUint64(hdr[:], uint64(g.m))
		h.Write(hdr[:])
		binary.LittleEndian.PutUint32(hdr[:4], SegBlockSize)
		h.Write(hdr[:4])

		outSections := [3]int{secOutStart, secOutAdj, secOutProb}
		var crcs []uint32
		if g.seg != nil {
			// Opened from a segmented file: the trailers already hold the
			// per-block digests (verified against the trailer self-CRC at
			// open; the mem backend additionally verified every payload
			// block against them).
			for _, kind := range outSections {
				crcs = append(crcs, g.seg.crcs[kind]...)
			}
		} else {
			c := newBlockCRCer()
			for _, v := range g.outStart {
				c.add8(uint64(v))
			}
			crcs = append(crcs, c.finish()...)
			for _, v := range g.outAdj {
				c.add4(v)
			}
			crcs = append(crcs, c.finish()...)
			for i := range g.outAdj {
				c.add4(math.Float32bits(g.outProbAt(int64(i))))
			}
			crcs = append(crcs, c.finish()...)
		}
		buf := make([]byte, 0, len(crcs)*4)
		for _, crc := range crcs {
			buf = binary.LittleEndian.AppendUint32(buf, crc)
		}
		h.Write(buf)
		g.hash = fmt.Sprintf("sha256:%x", h.Sum(nil))
	})
	return g.hash
}

// blockCRCer accumulates little-endian element images and emits one
// CRC32C per SegBlockSize block — the same chunking a segmented file's
// section writer uses, so heap slices digest to the trailer values.
// finish seals the current section's digests and resets for the next.
type blockCRCer struct {
	buf  []byte
	fill int
	crcs []uint32
}

func newBlockCRCer() *blockCRCer {
	return &blockCRCer{buf: make([]byte, SegBlockSize)}
}

func (c *blockCRCer) flush() {
	if c.fill > 0 {
		c.crcs = append(c.crcs, checksum.Sum(c.buf[:c.fill]))
		c.fill = 0
	}
}

func (c *blockCRCer) add4(v uint32) {
	if c.fill == SegBlockSize {
		c.flush()
	}
	binary.LittleEndian.PutUint32(c.buf[c.fill:], v)
	c.fill += 4
}

func (c *blockCRCer) add8(v uint64) {
	if c.fill == SegBlockSize {
		c.flush()
	}
	binary.LittleEndian.PutUint64(c.buf[c.fill:], v)
	c.fill += 8
}

func (c *blockCRCer) finish() []uint32 {
	c.flush()
	out := c.crcs
	c.crcs = nil
	return out
}
