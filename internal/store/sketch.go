package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"dimm/internal/sealed"
	"dimm/internal/sketch"
)

// The sketch tier persists as its own segment kind next to the RR
// segments: one sketch-NNNNNN.sk file holding the full encoded sketch
// set (a sealed file, see internal/sketch's wire format), referenced by a
// single manifest record. Unlike RR segments the sketch is replaced, not
// appended — a bottom-k sketch absorbs growth in place, so the newest
// file supersedes all earlier ones — but the publish path is the same
// sealed.Publish, the manifest is the authority, and the superseded file
// is removed only after the new manifest is durable.
const (
	sketchPrefix = "sketch-"
	sketchSuffix = ".sk"
)

// ErrNoSketch reports that the store holds no sketch checkpoint. A
// restoring service treats it as "rebuild from the RR sample", not as a
// failure.
var ErrNoSketch = errors.New("store: no sketch checkpoint")

// SketchRecord is the manifest's sketch row: the published sketch file
// and the configuration it was built under.
type SketchRecord struct {
	// Epoch is the growth epoch the sketch was built through; it matches
	// an RR epoch record so restore can tell whether the sketch is
	// current or lags the sample.
	Epoch uint64 `json:"epoch"`
	// File is the sketch file's name within the store directory.
	File string `json:"file"`
	// K and Seed pin the sketch configuration (sketch.Params).
	K    int    `json:"k"`
	Seed uint64 `json:"seed"`
	// Theta is how many RR instances the sketch absorbed.
	Theta int64 `json:"theta"`
	// Bytes is the file size; CRC duplicates its CRC32C footer.
	Bytes int64  `json:"bytes"`
	CRC   uint32 `json:"crc"`
}

// Sketch returns the manifest's sketch record, nil when none is
// published.
func (s *Store) Sketch() *SketchRecord { return s.man.Sketch }

// CheckpointSketch publishes the sketch set as the store's sketch
// segment for the given growth epoch, atomically superseding any
// previous one. A sketch already stored at the same epoch and theta is
// a no-op. Returns the bytes written.
func (s *Store) CheckpointSketch(epoch uint64, sk *sketch.Set) (int64, error) {
	if sk == nil {
		return 0, fmt.Errorf("store: checkpointing a nil sketch")
	}
	if old := s.man.Sketch; old != nil && old.Epoch == epoch && old.Theta == sk.Theta() {
		return 0, nil
	}
	data := sk.Encode()
	name := fmt.Sprintf("%s%06d%s", sketchPrefix, s.man.NextSeg, sketchSuffix)
	path := filepath.Join(s.dir, name)
	if err := sealed.Publish(path, data); err != nil {
		return 0, err
	}
	man := s.man
	man.NextSeg++
	man.Sketch = &SketchRecord{
		Epoch: epoch,
		File:  name,
		K:     sk.K(),
		Seed:  sk.Seed(),
		Theta: sk.Theta(),
		Bytes: int64(len(data)),
		CRC:   sealed.Footer(data),
	}
	old := s.man.Sketch
	if err := writeManifest(s.dir, man); err != nil {
		os.Remove(path) // unpublished; do not leave an orphan
		return 0, err
	}
	s.man = man
	if old != nil {
		os.Remove(filepath.Join(s.dir, old.File))
	}
	return int64(len(data)), nil
}

// RestoreSketch materializes the stored sketch for an n-node graph. The
// file runs the sealed-file ladder and the sketch's own decode, its
// configuration must match the manifest (ErrStale), and its node space
// must be n. The caller still owns the decision of whether the sketch's
// K/Seed match its own configuration — sketch.Set.Verify does that.
func (s *Store) RestoreSketch(n int) (*sketch.Set, *SketchRecord, error) {
	rec := s.man.Sketch
	if rec == nil {
		return nil, nil, ErrNoSketch
	}
	sk, err := readSketch(s.dir, rec)
	if err != nil {
		return nil, nil, err
	}
	if sk.N() != n {
		return nil, nil, &FingerprintMismatchError{Field: "sketch_nodes", Want: fmt.Sprint(sk.N()), Got: fmt.Sprint(n)}
	}
	return sk, rec, nil
}

// readSketch reads the published sketch end to end and checks it against
// its manifest record.
func readSketch(dir string, rec *SketchRecord) (*sketch.Set, error) {
	path := filepath.Join(dir, rec.File)
	sk, err := sketch.ReadFile(path, rec.Bytes, rec.CRC)
	if err != nil {
		return nil, err
	}
	if sk.K() != rec.K || sk.Seed() != rec.Seed || sk.Theta() != rec.Theta {
		return nil, sealed.Corrupt("sketch", path, sealed.ErrStale,
			"holds k=%d seed=%d theta=%d, manifest recorded k=%d seed=%d theta=%d",
			sk.K(), sk.Seed(), sk.Theta(), rec.K, rec.Seed, rec.Theta)
	}
	return sk, nil
}
