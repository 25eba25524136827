package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dimm/internal/graph"
	"dimm/internal/mutate"
	"dimm/internal/sealed"
)

func testBatch(seq uint64) mutate.Batch {
	return mutate.Batch{Seq: seq, Ops: []graph.EdgeUpdate{
		{Op: graph.OpRemove, From: 3, To: 7},
		{Op: graph.OpAdd, From: 1, To: 2, Prob: 0.9},
		{Op: graph.OpReweight, From: 5, To: 6, Prob: 0.25},
	}}
}

func TestDeltaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testFingerprint())
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := testCollections(10)
	if _, err := s.Checkpoint(1, r1, r2); err != nil {
		t.Fatal(err)
	}

	b1, b2 := testBatch(1), testBatch(2)
	if n, err := s.AppendDelta(2, b1, 4, false); err != nil || n <= 0 {
		t.Fatalf("AppendDelta 1: bytes=%d err=%v", n, err)
	}
	if n, err := s.AppendDelta(3, b2, 0, true); err != nil || n <= 0 {
		t.Fatalf("AppendDelta 2: bytes=%d err=%v", n, err)
	}
	if s.Deltas() != 2 {
		t.Fatalf("store holds %d deltas, want 2", s.Deltas())
	}

	// Reopen: the manifest round-trips the records and replay decodes
	// the exact batches back.
	s2, err := Open(dir, testFingerprint())
	if err != nil {
		t.Fatal(err)
	}
	batches, err := s2.ReplayDeltas()
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 {
		t.Fatalf("replayed %d batches, want 2", len(batches))
	}
	for i, want := range []mutate.Batch{b1, b2} {
		got := batches[i]
		if got.Seq != want.Seq || len(got.Ops) != len(want.Ops) {
			t.Fatalf("batch %d: got seq %d with %d ops, want seq %d with %d", i, got.Seq, len(got.Ops), want.Seq, len(want.Ops))
		}
		for j := range want.Ops {
			if got.Ops[j] != want.Ops[j] {
				t.Fatalf("batch %d op %d: %+v, want %+v", i, j, got.Ops[j], want.Ops[j])
			}
		}
	}

	info, err := Verify(dir)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if len(info.Deltas) != 2 || info.RepairedSets != 4 {
		t.Fatalf("info holds %d deltas / %d repaired, want 2 / 4", len(info.Deltas), info.RepairedSets)
	}
	if !info.Deltas[1].Remirrored || info.Deltas[0].Remirrored {
		t.Fatalf("remirrored flags wrong: %+v", info.Deltas)
	}

	// Out-of-order and empty batches are rejected.
	if _, err := s2.AppendDelta(4, testBatch(2), 0, false); err == nil {
		t.Fatal("stale delta seq accepted")
	}
	if _, err := s2.AppendDelta(4, mutate.Batch{Seq: 3}, 0, false); err == nil {
		t.Fatal("empty delta batch accepted")
	}
}

func TestDeltaPoisonsRestore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testFingerprint())
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := testCollections(10)
	if _, err := s.Checkpoint(1, r1, r2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Restore(100); err != nil {
		t.Fatalf("pre-delta restore: %v", err)
	}
	if _, err := s.AppendDelta(2, testBatch(1), 3, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Restore(100); !errors.Is(err, ErrDynamicHistory) {
		t.Fatalf("post-delta restore got %v, want ErrDynamicHistory", err)
	}
	// RR checkpoints keep appending fine: the journal only poisons
	// restore, not the store itself.
	r1.Append([]uint32{9}, 0)
	r2.Append([]uint32{8}, 0)
	if _, err := s.Checkpoint(2, r1, r2); err != nil {
		t.Fatalf("post-delta checkpoint: %v", err)
	}
}

func TestDeltaCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testFingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendDelta(1, testBatch(1), 2, false); err != nil {
		t.Fatal(err)
	}
	name := s.man.Deltas[0].File
	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A flipped payload bit fails the CRC.
	bad := append([]byte(nil), data...)
	bad[deltaKind.Size(0)+2] ^= 0x40
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); !errors.Is(err, sealed.ErrChecksum) {
		t.Fatalf("flipped bit got %v, want ErrChecksum", err)
	}

	// Truncation is caught by the size check.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); !errors.Is(err, sealed.ErrTruncated) {
		t.Fatalf("truncated segment got %v, want ErrTruncated", err)
	}

	// A missing file is a stale manifest.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); !errors.Is(err, sealed.ErrStale) {
		t.Fatalf("missing segment got %v, want ErrStale", err)
	}
}

func TestDeltaOrphanDetection(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testFingerprint())
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := testCollections(5)
	if _, err := s.Checkpoint(1, r1, r2); err != nil {
		t.Fatal(err)
	}
	// A delta-looking file the manifest does not reference is an orphan
	// (crash between segment publish and manifest publish).
	orphan := deltaPrefix + "999999" + deltaSuffix
	if err := os.WriteFile(filepath.Join(dir, orphan), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, o := range info.Orphans {
		if o == orphan {
			found = true
		}
	}
	if !found {
		t.Fatalf("orphan %s not detected (orphans: %v)", orphan, info.Orphans)
	}
	removed, err := Prune(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || !strings.HasPrefix(removed[0], deltaPrefix) {
		t.Fatalf("prune removed %v, want the delta orphan", removed)
	}
}
