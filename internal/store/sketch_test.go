package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dimm/internal/sealed"
	"dimm/internal/sketch"
)

func testSketch(t *testing.T, sets int) *sketch.Set {
	t.Helper()
	r1, _ := testCollections(sets)
	sk, err := sketch.New(100, sketch.Params{K: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sk.Absorb(r1.Snapshot(), 2)
	return sk
}

func TestSketchCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testFingerprint())
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := testCollections(40)
	if _, err := st.Checkpoint(1, r1, r2); err != nil {
		t.Fatal(err)
	}
	sk := testSketch(t, 40)
	n, err := st.CheckpointSketch(1, sk)
	if err != nil || n <= 0 {
		t.Fatalf("CheckpointSketch = %d, %v", n, err)
	}
	// Same epoch + theta again: no-op, no new file.
	if n, err := st.CheckpointSketch(1, sk); err != nil || n != 0 {
		t.Fatalf("repeat CheckpointSketch = %d, %v; want 0-byte no-op", n, err)
	}

	// A fresh Open sees the record and restores byte-identically.
	st2, err := Open(dir, testFingerprint())
	if err != nil {
		t.Fatal(err)
	}
	rec := st2.Sketch()
	if rec == nil || rec.Epoch != 1 || rec.K != 8 || rec.Theta != sk.Theta() {
		t.Fatalf("sketch record %+v", rec)
	}
	got, rec2, err := st2.RestoreSketch(100)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.File != rec.File {
		t.Fatalf("restore read %s, record says %s", rec2.File, rec.File)
	}
	if !bytes.Equal(got.Encode(), sk.Encode()) {
		t.Fatal("restored sketch is not byte-identical")
	}
	// Wrong node-space: typed fingerprint mismatch.
	var fm *FingerprintMismatchError
	if _, _, err := st2.RestoreSketch(101); !errors.As(err, &fm) || fm.Field != "sketch_nodes" {
		t.Fatalf("want sketch_nodes mismatch, got %v", err)
	}

	// Growth epoch supersedes: the old file is gone, the new one serves.
	r1b, r2b := testCollections(80)
	if _, err := st2.Checkpoint(2, r1b, r2b); err != nil {
		t.Fatal(err)
	}
	sk2 := testSketch(t, 80)
	if _, err := st2.CheckpointSketch(2, sk2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, rec.File)); !os.IsNotExist(err) {
		t.Fatalf("superseded sketch file %s still present (err=%v)", rec.File, err)
	}
	got2, _, err := st2.RestoreSketch(100)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Theta() != sk2.Theta() || !bytes.Equal(got2.Encode(), sk2.Encode()) {
		t.Fatal("restore after supersede returned the wrong sketch")
	}
}

// TestSketchCorruptionMatrix drives the store-level corruption ladder:
// truncation, bit flip and staleness each surface as their own
// sealed.Error cause, as for RR segments.
func TestSketchCorruptionMatrix(t *testing.T) {
	setup := func(t *testing.T) (string, *Store, *SketchRecord) {
		dir := t.TempDir()
		st, err := Open(dir, testFingerprint())
		if err != nil {
			t.Fatal(err)
		}
		r1, r2 := testCollections(30)
		if _, err := st.Checkpoint(1, r1, r2); err != nil {
			t.Fatal(err)
		}
		if _, err := st.CheckpointSketch(1, testSketch(t, 30)); err != nil {
			t.Fatal(err)
		}
		return dir, st, st.Sketch()
	}

	t.Run("truncation", func(t *testing.T) {
		dir, st, rec := setup(t)
		path := filepath.Join(dir, rec.File)
		data, _ := os.ReadFile(path)
		if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.RestoreSketch(100); !errors.Is(err, sealed.ErrTruncated) {
			t.Fatalf("want ErrTruncated, got %v", err)
		}
		if _, err := Verify(dir); !errors.Is(err, sealed.ErrTruncated) {
			t.Fatalf("Verify: want ErrTruncated, got %v", err)
		}
	})

	t.Run("bit flip", func(t *testing.T) {
		dir, st, rec := setup(t)
		path := filepath.Join(dir, rec.File)
		data, _ := os.ReadFile(path)
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.RestoreSketch(100); !errors.Is(err, sealed.ErrChecksum) {
			t.Fatalf("want ErrChecksum, got %v", err)
		}
	})

	t.Run("missing file", func(t *testing.T) {
		dir, st, rec := setup(t)
		if err := os.Remove(filepath.Join(dir, rec.File)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.RestoreSketch(100); !errors.Is(err, sealed.ErrStale) {
			t.Fatalf("want ErrStale, got %v", err)
		}
	})

	t.Run("no sketch", func(t *testing.T) {
		dir := t.TempDir()
		st, err := Open(dir, testFingerprint())
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.RestoreSketch(100); !errors.Is(err, ErrNoSketch) {
			t.Fatalf("want ErrNoSketch, got %v", err)
		}
	})
}

func TestSketchInspectPruneCompact(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testFingerprint())
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := testCollections(20)
	if _, err := st.Checkpoint(1, r1, r2); err != nil {
		t.Fatal(err)
	}
	r1b, r2b := testCollections(50)
	if _, err := st.Checkpoint(2, r1b, r2b); err != nil {
		t.Fatal(err)
	}
	if _, err := st.CheckpointSketch(2, testSketch(t, 50)); err != nil {
		t.Fatal(err)
	}

	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Sketch == nil || info.Sketch.Epoch != 2 {
		t.Fatalf("Inspect lost the sketch record: %+v", info.Sketch)
	}
	if len(info.Orphans) != 0 {
		t.Fatalf("published sketch misread as orphan: %v", info.Orphans)
	}
	if _, err := Verify(dir); err != nil {
		t.Fatal(err)
	}

	// An unreferenced sketch-looking file is an orphan and prunable; the
	// published one survives.
	orphan := filepath.Join(dir, sketchPrefix+"999999"+sketchSuffix)
	if err := os.WriteFile(orphan, []byte("debris"), 0o644); err != nil {
		t.Fatal(err)
	}
	removed, err := Prune(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || !strings.HasPrefix(removed[0], sketchPrefix) {
		t.Fatalf("Prune removed %v", removed)
	}
	if _, _, err := st.RestoreSketch(100); err != nil {
		t.Fatalf("published sketch lost to prune: %v", err)
	}

	// Compact merges RR segments but must carry the sketch record along.
	if err := Compact(dir); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, testFingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if st2.Sketch() == nil {
		t.Fatal("Compact dropped the sketch record")
	}
	if _, _, err := st2.RestoreSketch(100); err != nil {
		t.Fatalf("restore after compact: %v", err)
	}
}
