package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dimm/internal/rrset"
	"dimm/internal/sealed"
)

// sealedStore writes a store holding one of each sealed artifact: an RR
// segment, a sketch and a graph delta.
func sealedStore(t *testing.T) (string, *Store) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, testFingerprint())
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := testCollections(15)
	if _, err := s.Checkpoint(1, r1, r2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CheckpointSketch(1, testSketch(t, 15)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendDelta(2, testBatch(1), 2, true); err != nil {
		t.Fatal(err)
	}
	return dir, s
}

// TestSealedFilesGolden pins every file of sealedStore's store to
// SHA-256 digests recorded with the per-artifact codecs the sealed codec
// replaced: the formats are unchanged, so stores written before it
// restore unchanged.
func TestSealedFilesGolden(t *testing.T) {
	golden := map[string]string{
		"seg-000000.rr":    "44413837a51ab82cec34eaf5d8c9bb9c7a1fa5789ad35bd75c477f3cabbdf5c9",
		"sketch-000001.sk": "97a0c74eab26d514283526582c2a2a74e60e6cc39db41be7e38eb0320105f889",
		"delta-000002.gd":  "f0a82c24e5cc5f0aa2d51cdd3a3f18c2285dd266bb0d9a4ea587dcac9a06799c",
		"manifest.json":    "e2ea00d2ff5ca2eb483c1c3c5662109ef3158c38a7d3b82c65351241223b7dbc",
	}
	dir, _ := sealedStore(t)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(golden) {
		t.Fatalf("store holds %d files, want %d", len(ents), len(golden))
	}
	for name, want := range golden {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != want {
			t.Errorf("%s: SHA-256 %x, want %s", name, sum, want)
		}
	}
	if _, err := Verify(dir); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyParallelismManifest: manifests written while the per-worker
// shard count was part of the fingerprint carry a "parallelism" key.
// Putting it back into sealedStore's manifest must reproduce the digest
// recorded then, and a manifest carrying it must still open and restore.
func TestLegacyParallelismManifest(t *testing.T) {
	const legacy = "e34098d4bf08ac8842922c567876c7a2374d0432e25d22f830d40d3d496f72cb"
	addKey := func(dir string) []byte {
		t.Helper()
		path := filepath.Join(dir, manifestName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		machines := []byte("    \"machines\": 4,\n")
		if !bytes.Contains(data, machines) {
			t.Fatalf("manifest has no machines line:\n%s", data)
		}
		data = bytes.Replace(data, machines, append(machines, "    \"parallelism\": 2,\n"...), 1)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return data
	}
	dir, _ := sealedStore(t)
	if sum := sha256.Sum256(addKey(dir)); hex.EncodeToString(sum[:]) != legacy {
		t.Fatalf("legacy manifest SHA-256 %x, want %s", sum, legacy)
	}
	if _, err := Open(dir, testFingerprint()); err != nil {
		t.Fatalf("Open legacy manifest: %v", err)
	}

	dir = t.TempDir()
	fp := seedStore(t, dir)
	addKey(dir)
	res, err := Restore(dir, fp, 100)
	if err != nil {
		t.Fatalf("Restore legacy manifest: %v", err)
	}
	r1, r2 := testCollections(15)
	r1.Append([]uint32{9, 8, 7}, 0)
	sameSets(t, r1, res.R1, "R1")
	sameSets(t, r2, res.R2, "R2")
}

// TestSealedCorruptionMatrix is the one corruption table for every sealed
// artifact the store holds: each damage pattern must surface from Verify
// as a *sealed.Error naming the damaged file and the ladder rung that
// caught it.
func TestSealedCorruptionMatrix(t *testing.T) {
	artifacts := []struct {
		name, file string
		crc        func(*manifest) *uint32 // the manifest's CRC for the file
	}{
		{"segment", "seg-000000.rr", func(m *manifest) *uint32 { return &m.Epochs[0].CRC }},
		{"sketch", "sketch-000001.sk", func(m *manifest) *uint32 { return &m.Sketch.CRC }},
		{"delta", "delta-000002.gd", func(m *manifest) *uint32 { return &m.Deltas[0].CRC }},
	}
	reseal := func(data []byte) []byte {
		out, _ := sealed.Seal(append([]byte(nil), data[:len(data)-4]...))
		return out
	}
	damages := []struct {
		name  string
		cause error
		// file rewrites the artifact's bytes (nil: remove it); manifest,
		// when set, edits the manifest instead.
		file     func([]byte) []byte
		manifest func(*uint32)
	}{
		{"truncated", sealed.ErrTruncated, func(b []byte) []byte { return b[:len(b)-5] }, nil},
		{"bit flip", sealed.ErrChecksum, func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }, nil},
		{"foreign magic", sealed.ErrFormat, func(b []byte) []byte { b[0] ^= 0xff; return reseal(b) }, nil},
		{"version skew", sealed.ErrVersion, func(b []byte) []byte { b[4]++; return reseal(b) }, nil},
		{"missing", sealed.ErrStale, func([]byte) []byte { return nil }, nil},
		{"manifest CRC", sealed.ErrStale, nil, func(crc *uint32) { *crc ^= 1 }},
	}
	for _, a := range artifacts {
		for _, d := range damages {
			t.Run(a.name+"/"+d.name, func(t *testing.T) {
				dir, s := sealedStore(t)
				path := filepath.Join(dir, a.file)
				if d.manifest != nil {
					man := s.man
					d.manifest(a.crc(&man))
					if err := writeManifest(dir, man); err != nil {
						t.Fatal(err)
					}
				} else {
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if bad := d.file(data); bad == nil {
						err = os.Remove(path)
					} else {
						err = os.WriteFile(path, bad, 0o644)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				_, err := Verify(dir)
				var se *sealed.Error
				if !errors.As(err, &se) || !errors.Is(err, d.cause) {
					t.Fatalf("got %v, want a *sealed.Error caused by %q", err, d.cause)
				}
				if se.Artifact != a.name || se.Path != path {
					t.Fatalf("error blames %s %s, want %s %s", se.Artifact, se.Path, a.name, path)
				}
			})
		}
	}
}

// FuzzDecodeSegments: every input opens and decodes, as an RR segment and
// as a graph-delta segment, to a *sealed.Error or to contents that encode
// back to the input byte for byte, without panicking and without an
// allocation sized by a declared count. Each input is also tried
// resealed with a fresh CRC32C footer, so mutations reach the header and
// payload checks behind the checksum. The manifest record each decode
// checks against is read from the input's own header.
func FuzzDecodeSegments(f *testing.F) {
	r1, r2 := testCollections(6)
	seg, _ := encodeSegment(3, r1, 0, r2, 2)
	delta, _ := encodeDelta(4, testBatch(7), 2, true)
	// Where each payload's first declared count sits: the R1 set count,
	// and the op count after the batch's seq.
	counts := []int{segKind.Size(0) - 4, deltaKind.Size(0) - 4 + 8}
	for i, enc := range [][]byte{seg, delta} {
		f.Add(enc)
		for _, off := range []int{5, 12, counts[i] + 1, len(enc) - 2} {
			bad := append([]byte(nil), enc...)
			bad[off] ^= 0x10
			f.Add(bad)
		}
		f.Add(enc[:len(enc)/2])
		huge := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint32(huge[counts[i]:], 1<<31)
		f.Add(huge)
	}
	flagged := append([]byte(nil), delta...)
	flagged[8+20] |= 2 // a flag bit beside remirrored that no writer sets
	f.Add(flagged)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resealed(data)} {
			if in == nil {
				continue
			}
			checkAlloc(t, in, func() { checkSegment(t, in) })
			checkAlloc(t, in, func() { checkDelta(t, in) })
		}
	})
}

// resealed recomputes a blob's CRC32C footer, nil when it has none.
func resealed(data []byte) []byte {
	if len(data) < 4 {
		return nil
	}
	out, _ := sealed.Seal(append([]byte(nil), data[:len(data)-4]...))
	return out
}

func checkAlloc(t *testing.T, data []byte, fn func()) {
	t.Helper()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	fn()
	runtime.ReadMemStats(&ms)
	if alloc := ms.TotalAlloc - before; alloc > 8*uint64(len(data))+1<<16 {
		t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
	}
}

func typed(t *testing.T, err error) {
	t.Helper()
	var se *sealed.Error
	if !errors.As(err, &se) {
		t.Fatalf("untyped decode error %T: %v", err, err)
	}
}

func checkSegment(t *testing.T, data []byte) {
	hdr, payload, err := segKind.Open(data)
	if err != nil {
		typed(t, err)
		return
	}
	rec := EpochRecord{
		Epoch:  binary.LittleEndian.Uint64(hdr[0:]),
		R1Sets: int(binary.LittleEndian.Uint32(hdr[8:])),
		R2Sets: int(binary.LittleEndian.Uint32(hdr[12:])),
	}
	r1, r2 := rrset.NewCollection(0), rrset.NewCollection(0)
	if err := decodeSegment("", rec, hdr, payload, r1, r2); err != nil {
		typed(t, err)
		return
	}
	if again, _ := encodeSegment(rec.Epoch, r1, 0, r2, 0); !bytes.Equal(again, data) {
		t.Fatal("decoded segment does not re-encode to its input")
	}
}

func checkDelta(t *testing.T, data []byte) {
	hdr, payload, err := deltaKind.Open(data)
	if err != nil {
		typed(t, err)
		return
	}
	rec := DeltaRecord{
		Seq:        binary.LittleEndian.Uint64(hdr[0:]),
		Epoch:      binary.LittleEndian.Uint64(hdr[8:]),
		Repaired:   int(binary.LittleEndian.Uint32(hdr[16:])),
		Remirrored: binary.LittleEndian.Uint32(hdr[20:])&deltaFlagRemirrored != 0,
	}
	if len(payload) >= 12 {
		rec.Ops = int(binary.LittleEndian.Uint32(payload[8:]))
	}
	b, err := decodeDelta("", rec, hdr, payload)
	if err != nil {
		typed(t, err)
		return
	}
	if again, _ := encodeDelta(rec.Epoch, b, rec.Repaired, rec.Remirrored); !bytes.Equal(again, data) {
		t.Fatal("decoded delta does not re-encode to its input")
	}
}
