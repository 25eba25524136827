package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dimm/internal/checksum"
	"dimm/internal/sealed"
)

// Fuzz input flags: which checksums to recompute after the byte edits,
// so the fuzzer also reaches files whose damage no CRC catches.
const (
	fuzzRefitHeader   = 1 << iota // reseal the header CRC
	fuzzRefitTrailers             // recompute every block CRC and trailer self-CRC
	fuzzTruncate                  // cut the file in half
)

// FuzzOpenSegmented feeds damaged files to the mem backend's opener.
// A .dsg file is at least 32 KiB of mostly zero fill, so the fuzz input
// is a compact edit script over a small intact file instead: a flags
// byte, then (u16 offset, xor byte) edits. The invariant: a
// *sealed.Error, or a graph whose every section equals, byte for byte,
// what a re-encode of it opens to; never a panic. The seeds are
// TestSegmentedCorruptionMatrix's damage patterns.
func FuzzOpenSegmented(f *testing.F) {
	b := NewBuilder(5)
	for _, e := range []Edge{{0, 1, 0.5}, {1, 2, 1}, {3, 1, 0.25}, {4, 0, 0.75}} {
		if err := b.AddEdge(e.From, e.To, e.Prob); err != nil {
			f.Fatal(err)
		}
	}
	g := b.Build()
	dir := f.TempDir() // each fuzz worker process runs its inputs one at a time
	seed := filepath.Join(dir, "seed.dsg")
	if err := WriteSegmentedFile(seed, g, "file"); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	layout := computeLayout(g.n, g.m)
	edit := func(flags byte, off int64, xor byte) []byte {
		return []byte{flags, byte(off), byte(off >> 8), xor}
	}
	in, out := layout.sections[secInAdj], layout.sections[secOutAdj]
	f.Add([]byte{0})
	f.Add([]byte{fuzzTruncate})
	f.Add(edit(0, 9, 0xff))                                                                // header bit flip
	f.Add(append(edit(fuzzRefitHeader, 1, 'S'^'I'), 2, 0, 'G'^'M'))                        // magic "DIM1"
	f.Add(edit(fuzzRefitHeader, 4, 1^2))                                                   // version 2
	f.Add(edit(0, in.off+in.payloadBytes()/2, 0xff))                                       // payload flip
	f.Add(edit(0, out.trailerOff(), 0xff))                                                 // trailer flip
	f.Add(edit(0, out.off+out.payloadBytes()/2, 0xff))                                     // out-side payload flip: verified, though not kept
	f.Add(edit(fuzzRefitTrailers, layout.sections[secOutStart].off+8, 0x40))               // offsets past m, CRCs intact
	f.Add(edit(fuzzRefitTrailers|fuzzRefitHeader, layout.sections[secInProb].off+3, 0x7f)) // NaN weight
	f.Add(edit(fuzzRefitHeader, 28, 1))                                                    // uniform flag over node 1's unequal in-edges
	f.Add(edit(fuzzRefitHeader, 28, 2))                                                    // flag byte neither 0 nor 1

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		file := append([]byte(nil), raw...)
		for e := script[1:]; len(e) >= 3; e = e[3:] {
			file[int(binary.LittleEndian.Uint16(e))%len(file)] ^= e[2]
		}
		if script[0]&fuzzRefitTrailers != 0 {
			refitTrailers(file, layout)
		}
		if script[0]&fuzzRefitHeader != 0 {
			binary.LittleEndian.PutUint32(file[segHeaderSize-4:], checksum.Sum(file[:segHeaderSize-4]))
		}
		if script[0]&fuzzTruncate != 0 {
			file = file[:len(file)/2]
		}
		path := filepath.Join(dir, "in.dsg")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := OpenSegmented(path, BackendMem)
		if err != nil {
			var se *sealed.Error
			if !errors.As(err, &se) {
				t.Fatalf("open failed with %T %v, want a *sealed.Error", err, err)
			}
			return
		}
		defer got.Close()
		// Re-encode unsynced: an fsync per exec stalls input minimization.
		again := filepath.Join(dir, "again.dsg")
		af, err := os.Create(again)
		if err != nil {
			t.Fatal(err)
		}
		err = encodeSegmented(af, got, got.WeightTag())
		if cerr := af.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		back, err := OpenSegmented(again, BackendMem)
		if err != nil {
			t.Fatalf("re-encoded graph does not open: %v", err)
		}
		defer back.Close()
		if got.n != back.n || got.m != back.m || got.uniformIn != back.uniformIn || got.WeightTag() != back.WeightTag() {
			t.Fatalf("re-encode changed n=%d m=%d uniform=%v tag=%q to n=%d m=%d uniform=%v tag=%q",
				got.n, got.m, got.uniformIn, got.WeightTag(), back.n, back.m, back.uniformIn, back.WeightTag())
		}
		gotImg, backImg := sectionImages(got), sectionImages(back)
		for kind := range gotImg {
			if !bytes.Equal(gotImg[kind], backImg[kind]) {
				t.Fatalf("section %s differs after a re-encode", secNames[kind])
			}
		}
	})
}

// sectionImages returns the little-endian payload each of g's seven
// sections would be written as, the per-edge probabilities expanded.
func sectionImages(g *Graph) [segSectionCount][]byte {
	var img [segSectionCount][]byte
	outProb, inProb := g.edgeProbArrays()
	for _, v := range g.outStart {
		img[secOutStart] = binary.LittleEndian.AppendUint64(img[secOutStart], uint64(v))
	}
	for _, v := range g.inStart {
		img[secInStart] = binary.LittleEndian.AppendUint64(img[secInStart], uint64(v))
	}
	for _, v := range g.inProbSum {
		img[secInProbSum] = binary.LittleEndian.AppendUint64(img[secInProbSum], math.Float64bits(v))
	}
	for i := range g.outAdj {
		img[secOutAdj] = binary.LittleEndian.AppendUint32(img[secOutAdj], g.outAdj[i])
		img[secOutProb] = binary.LittleEndian.AppendUint32(img[secOutProb], math.Float32bits(outProb[i]))
		img[secInAdj] = binary.LittleEndian.AppendUint32(img[secInAdj], g.inAdj[i])
		img[secInProb] = binary.LittleEndian.AppendUint32(img[secInProb], math.Float32bits(inProb[i]))
	}
	return img
}
