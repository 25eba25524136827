package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dimm/internal/offheap"
	"dimm/internal/rrset"
	"dimm/internal/sealed"
)

func testFingerprint() Fingerprint {
	return Fingerprint{
		GraphHash:   "sha256:test",
		Model:       "ic",
		WeightModel: "wc",
		Seed:        42,
		Machines:    4,
		KMax:        10,
		EpsFloor:    0.3,
	}
}

// testCollections builds two deterministic collections with sets RR
// sets each, shaped so R1 and R2 differ.
func testCollections(sets int) (*rrset.Collection, *rrset.Collection) {
	r1 := rrset.NewCollection(0)
	r2 := rrset.NewCollection(0)
	for i := 0; i < sets; i++ {
		m1 := make([]uint32, 1+i%5)
		for j := range m1 {
			m1[j] = uint32(i*7+j) % 100
		}
		r1.Append(m1, 0)
		m2 := make([]uint32, 1+(i+3)%4)
		for j := range m2 {
			m2[j] = uint32(i*13+j) % 100
		}
		r2.Append(m2, 0)
	}
	return r1, r2
}

func sameSets(t *testing.T, want, got *rrset.Collection, label string) {
	t.Helper()
	if want.Count() != got.Count() {
		t.Fatalf("%s: restored %d RR sets, want %d", label, got.Count(), want.Count())
	}
	for i := 0; i < want.Count(); i++ {
		w, g := want.Set(i), got.Set(i)
		if len(w) != len(g) {
			t.Fatalf("%s: set %d has %d members, want %d", label, i, len(g), len(w))
		}
		for j := range w {
			if w[j] != g[j] {
				t.Fatalf("%s: set %d member %d is %d, want %d", label, i, j, g[j], w[j])
			}
		}
	}
}

func TestRoundTripIncremental(t *testing.T) {
	dir := t.TempDir()
	fp := testFingerprint()
	r1, r2 := testCollections(20)

	s, err := Open(dir, fp)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	n, err := s.Checkpoint(1, r1, r2)
	if err != nil || n <= 0 {
		t.Fatalf("Checkpoint epoch 1: bytes=%d err=%v", n, err)
	}
	// Grow both collections, checkpoint again: only the suffix should
	// land in the second segment.
	r1.Append([]uint32{1, 2, 3}, 0)
	r2.Append([]uint32{4, 5}, 0)
	r2.Append([]uint32{6}, 0)
	n2, err := s.Checkpoint(2, r1, r2)
	if err != nil || n2 <= 0 {
		t.Fatalf("Checkpoint epoch 2: bytes=%d err=%v", n2, err)
	}
	if n2 >= n {
		t.Fatalf("incremental segment (%d bytes) not smaller than the initial one (%d)", n2, n)
	}
	// A third checkpoint with nothing new writes nothing.
	n3, err := s.Checkpoint(3, r1, r2)
	if err != nil || n3 != 0 {
		t.Fatalf("no-op checkpoint: bytes=%d err=%v", n3, err)
	}
	if s.Epochs() != 2 {
		t.Fatalf("store holds %d epochs, want 2", s.Epochs())
	}

	res, err := Restore(dir, fp, 100)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if res.Epoch != 2 || res.Epochs != 2 {
		t.Fatalf("restored epoch=%d segments=%d, want 2/2", res.Epoch, res.Epochs)
	}
	sameSets(t, r1, res.R1, "R1")
	sameSets(t, r2, res.R2, "R2")
	if res.Idx1 == nil || res.Idx2 == nil {
		t.Fatal("restore did not build inverted indexes")
	}
}

func TestRestoreEmpty(t *testing.T) {
	dir := t.TempDir()
	if _, err := Restore(dir, testFingerprint(), 10); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: got %v, want ErrNoCheckpoint", err)
	}
	if _, err := Restore(filepath.Join(dir, "missing"), testFingerprint(), 10); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("missing dir: got %v, want ErrNoCheckpoint", err)
	}
	// Open on an empty dir succeeds; Restore on it reports no checkpoint.
	s, err := Open(dir, testFingerprint())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := s.Restore(10); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Store.Restore on empty store: got %v, want ErrNoCheckpoint", err)
	}
}

// seedStore writes a two-epoch store and returns its fingerprint.
func seedStore(t *testing.T, dir string) Fingerprint {
	t.Helper()
	fp := testFingerprint()
	r1, r2 := testCollections(15)
	s, err := Open(dir, fp)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := s.Checkpoint(1, r1, r2); err != nil {
		t.Fatalf("Checkpoint 1: %v", err)
	}
	r1.Append([]uint32{9, 8, 7}, 0)
	if _, err := s.Checkpoint(2, r1, r2); err != nil {
		t.Fatalf("Checkpoint 2: %v", err)
	}
	return fp
}

func TestFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	fp := seedStore(t, dir)

	cases := []struct {
		field  string
		mutate func(*Fingerprint)
	}{
		{"graph_hash", func(f *Fingerprint) { f.GraphHash = "sha256:other" }},
		{"model", func(f *Fingerprint) { f.Model = "lt" }},
		{"seed", func(f *Fingerprint) { f.Seed = 43 }},
		{"machines", func(f *Fingerprint) { f.Machines = 8 }},
		{"k_max", func(f *Fingerprint) { f.KMax = 20 }},
		{"eps_floor", func(f *Fingerprint) { f.EpsFloor = 0.1 }},
	}
	for _, tc := range cases {
		bad := fp
		tc.mutate(&bad)
		_, err := Restore(dir, bad, 100)
		var fe *FingerprintMismatchError
		if !errors.As(err, &fe) {
			t.Fatalf("%s mutation: got %v, want FingerprintMismatchError", tc.field, err)
		}
		if fe.Field != tc.field {
			t.Fatalf("mutated %s but error names %s", tc.field, fe.Field)
		}
		// Open must refuse too — appending under the wrong config would
		// fork the sample history.
		if _, err := Open(dir, bad); !errors.As(err, &fe) {
			t.Fatalf("Open with mutated %s: got %v, want FingerprintMismatchError", tc.field, err)
		}
	}
	// The matching fingerprint still restores, at any shard count.
	fp.Parallelism = 4
	if _, err := Restore(dir, fp, 100); err != nil {
		t.Fatalf("Restore with matching fingerprint: %v", err)
	}
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segment files in %s (err=%v)", dir, err)
	}
	return matches
}

func TestBitFlipFailsRestore(t *testing.T) {
	dir := t.TempDir()
	fp := seedStore(t, dir)
	seg := segFiles(t, dir)[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(dir, fp, 100); !errors.Is(err, sealed.ErrChecksum) {
		t.Fatalf("bit flip: got %v, want ErrChecksum", err)
	}
	if _, err := Verify(dir); !errors.Is(err, sealed.ErrChecksum) {
		t.Fatalf("Verify after bit flip: got %v, want ErrChecksum", err)
	}
}

func TestTruncationFailsRestore(t *testing.T) {
	dir := t.TempDir()
	fp := seedStore(t, dir)
	seg := segFiles(t, dir)[0]
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-5); err != nil {
		t.Fatal(err)
	}
	_, err = Restore(dir, fp, 100)
	var te *sealed.Error
	if !errors.As(err, &te) || !errors.Is(err, sealed.ErrTruncated) {
		t.Fatalf("truncation: got %v, want ErrTruncated", err)
	}
	if sizes := fmt.Sprintf("%d bytes, manifest recorded %d", st.Size()-5, st.Size()); te.Detail != sizes || te.Path != seg {
		t.Fatalf("truncation error reports %s: %q, want %s: %q", te.Path, te.Detail, seg, sizes)
	}
}

func TestStaleManifestFailsRestore(t *testing.T) {
	// Missing segment file → stale manifest.
	dir := t.TempDir()
	fp := seedStore(t, dir)
	if err := os.Remove(segFiles(t, dir)[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(dir, fp, 100); !errors.Is(err, sealed.ErrStale) {
		t.Fatalf("missing segment: got %v, want ErrStale", err)
	}

	// Manifest recording the wrong set count → stale manifest.
	dir2 := t.TempDir()
	fp = seedStore(t, dir2)
	raw, err := os.ReadFile(filepath.Join(dir2, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	man.Epochs[0].R1Sets++
	if err := writeManifest(dir2, man); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(dir2, fp, 100); !errors.Is(err, sealed.ErrStale) {
		t.Fatalf("wrong epoch set count: got %v, want ErrStale", err)
	}
}

func TestInspectPruneCompact(t *testing.T) {
	dir := t.TempDir()
	fp := seedStore(t, dir)

	// Drop an orphan the manifest does not reference.
	orphan := filepath.Join(dir, segPrefix+"999999"+segSuffix)
	if err := os.WriteFile(orphan, []byte("debris"), 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(dir)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if len(info.Epochs) != 2 || info.R1Sets != 16 || info.R2Sets != 15 {
		t.Fatalf("Inspect: epochs=%d r1=%d r2=%d, want 2/16/15", len(info.Epochs), info.R1Sets, info.R2Sets)
	}
	if len(info.Orphans) != 1 || info.Orphans[0] != filepath.Base(orphan) {
		t.Fatalf("Inspect orphans = %v, want [%s]", info.Orphans, filepath.Base(orphan))
	}
	removed, err := Prune(dir)
	if err != nil || len(removed) != 1 {
		t.Fatalf("Prune: removed=%v err=%v", removed, err)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphan still present after prune: %v", err)
	}

	before, err := Restore(dir, fp, 100)
	if err != nil {
		t.Fatalf("Restore before compact: %v", err)
	}
	if err := Compact(dir); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after, err := Restore(dir, fp, 100)
	if err != nil {
		t.Fatalf("Restore after compact: %v", err)
	}
	if after.Epochs != 1 || after.Epoch != before.Epoch {
		t.Fatalf("compacted store restores epoch=%d segments=%d, want %d/1", after.Epoch, after.Epochs, before.Epoch)
	}
	sameSets(t, before.R1, after.R1, "R1 post-compact")
	sameSets(t, before.R2, after.R2, "R2 post-compact")
	if len(segFiles(t, dir)) != 1 {
		t.Fatal("compact left more than one segment file")
	}
	// Compacting a single-segment store is a no-op.
	if err := Compact(dir); err != nil {
		t.Fatalf("Compact no-op: %v", err)
	}
	// A later checkpoint after compaction must not collide with the
	// merged segment's name.
	r1, r2 := testCollections(15)
	r1.Append([]uint32{9, 8, 7}, 0)
	r1.Append([]uint32{55}, 0)
	s, err := Open(dir, fp)
	if err != nil {
		t.Fatalf("reopen after compact: %v", err)
	}
	if _, err := s.Checkpoint(3, r1, r2); err != nil {
		t.Fatalf("checkpoint after compact: %v", err)
	}
	res, err := Restore(dir, fp, 100)
	if err != nil {
		t.Fatalf("Restore after post-compact growth: %v", err)
	}
	sameSets(t, r1, res.R1, "R1 post-compact growth")
}

func TestCheckpointRejectsShrunkCollections(t *testing.T) {
	dir := t.TempDir()
	fp := seedStore(t, dir)
	s, err := Open(dir, fp)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	small1, small2 := testCollections(3)
	if _, err := s.Checkpoint(5, small1, small2); !errors.Is(err, sealed.ErrStale) {
		t.Fatalf("shrunk collections: got %v, want ErrStale", err)
	}
}

// TestRestoreReleasesOnError: a Restore that fails, whichever step
// failed, leaves nothing mapped. The collections hold more than
// offheap.MinBytes of members and span two 2^16-set index windows, so
// both arenas and the first window's postings live off the Go heap.
func TestRestoreReleasesOnError(t *testing.T) {
	const sets, size = 70000, 16
	r1, r2 := rrset.NewCollection(0), rrset.NewCollection(0)
	t.Cleanup(func() { r1.Release(); r2.Release() })
	members := make([]uint32, size)
	for i := 0; i < sets; i++ {
		for j := range members {
			members[j] = uint32(i*size+j) % 1000
		}
		r1.Append(members, 0)
		r2.Append(members, 0)
	}
	dir := t.TempDir()
	fp := testFingerprint()
	s, err := Open(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(1, r1, r2); err != nil {
		t.Fatal(err)
	}
	r1.Append([]uint32{1, 2}, 0)
	r2.Append([]uint32{3, 4000}, 0) // the largest member: node 4000
	if _, err := s.Checkpoint(2, r1, r2); err != nil {
		t.Fatal(err)
	}

	base := offheap.Mapped()
	res, err := s.Restore(5000)
	if err != nil {
		t.Fatal(err)
	}
	if grew := offheap.Mapped() - base; grew < 3*offheap.MinBytes {
		t.Fatalf("a restore mapped %d bytes, want more than 3 MiB for the test to mean anything", grew)
	}
	res.Idx1.Release()
	res.Idx2.Release()
	res.R1.Release()
	res.R2.Release()
	if got := offheap.Mapped(); got != base {
		t.Fatalf("releasing a restore left %d bytes mapped, want %d", got, base)
	}

	failed := func(what string, n int, check func(error) bool) {
		t.Helper()
		if _, err := s.Restore(n); err == nil || !check(err) {
			t.Fatalf("%s: Restore(%d) returned %v", what, n, err)
		}
		if got := offheap.Mapped(); got != base {
			t.Fatalf("%s: a failed Restore left %d bytes mapped, want %d", what, got-base, 0)
		}
	}
	anyErr := func(error) bool { return true }
	failed("R2's index", 2000, anyErr) // R1's index builds first
	failed("R1's index", 500, anyErr)
	segs := segFiles(t, dir)
	data, err := os.ReadFile(segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(segs[len(segs)-1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	failed("corrupt last segment", 5000, func(err error) bool { return errors.Is(err, sealed.ErrChecksum) })
}
