// Package store is the durable RR-sample store: a segmented on-disk
// checkpoint format for the resident query service's R1/R2 collections,
// so a restart or deploy pays seconds of sequential I/O instead of
// minutes of distributed resampling. The paper's sample is a pure
// function of (graph, weight model, sampler seeds, machine count, growth
// epoch), so persisting and restoring it introduces
// no new randomness and leaves the (1 − 1/e − ε) guarantee untouched —
// see DESIGN.md, "Why restore preserves the guarantee".
//
// On-disk layout, one directory per store:
//
//	manifest.json   segment list + validity fingerprint (atomic replace)
//	seg-000000.rr   one segment per checkpointed growth epoch
//	seg-000001.rr   ...
//
// Each segment holds the RR sets both collections gained in one growth
// epoch, in the existing little-endian wire layout
// (rrset.Collection.AppendWireRange), as a sealed file (internal/sealed:
// magic, version, epoch, set counts, payload length, payload, CRC32C
// footer). Every file, the manifest included, is published through
// sealed.Publish (temp file + fsync + rename), and the manifest is the
// authority, so a crash mid-checkpoint leaves the previous manifest
// intact and at worst an orphan segment file (cmd/dimmstore prune removes
// those).
//
// Checkpointing is incremental in the same sense as rrset.Index.
// AppendFrom: a Checkpoint call appends only the sets generated since
// the previous one, never rewriting published segments. Restore rejects
// any mismatch rather than silently serving a sample the certificates
// were not computed for: a wrong fingerprint is a
// *FingerprintMismatchError, and a flipped bit, truncated file, foreign
// file or stale manifest is a *sealed.Error whose Cause names which.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"dimm/internal/rrset"
	"dimm/internal/sealed"
)

const (
	manifestName    = "manifest.json"
	manifestVersion = 1
	segPrefix       = "seg-"
	segSuffix       = ".rr"
)

// Fingerprint pins a checkpoint to the exact sampling configuration
// that produced it. Restoring under any other configuration would serve
// answers whose certificates were computed for a different distribution,
// so every field must match bit-for-bit.
type Fingerprint struct {
	// GraphHash is graph.ContentHash() of the substrate: SHA-256 over
	// the CSR arrays and edge weights, so it covers both topology and
	// the weight assignment.
	GraphHash string `json:"graph_hash"`
	// Model is the diffusion model ("ic" or "lt").
	Model string `json:"model"`
	// WeightModel optionally names the weight assignment ("wc", ...);
	// GraphHash already covers the actual weights, this is a
	// human-readable guard for tooling.
	WeightModel string `json:"weight_model,omitempty"`
	// Subset records whether SUBSIM subset sampling was used.
	Subset bool `json:"subset"`
	// Seed and Machines determine the workers' RR streams: the sample is
	// a deterministic function of them. The per-worker shard count is
	// not: shards split one stream by ordinal, so a checkpoint restores
	// at any parallelism.
	Seed     uint64 `json:"seed"`
	Machines int    `json:"machines"`
	// Parallelism is ignored: it is neither written to the manifest nor
	// compared, and a "parallelism" key in an older manifest is skipped.
	// It stays only because benchmark/serve.go still sets it.
	Parallelism int `json:"-"`
	// KMax and EpsFloor are the admissibility envelope the resident
	// sample was budgeted for (core.PlanResidentSample); a store warmed
	// for one envelope must not back a service promising another.
	KMax     int     `json:"k_max"`
	EpsFloor float64 `json:"eps_floor"`
}

// diff returns a typed mismatch error naming the first differing field,
// with f as the stored ("want") side, or nil if the fingerprints match.
func (f Fingerprint) diff(got Fingerprint) *FingerprintMismatchError {
	mk := func(field string, want, got any) *FingerprintMismatchError {
		return &FingerprintMismatchError{Field: field, Want: fmt.Sprint(want), Got: fmt.Sprint(got)}
	}
	switch {
	case f.GraphHash != got.GraphHash:
		return mk("graph_hash", f.GraphHash, got.GraphHash)
	case f.Model != got.Model:
		return mk("model", f.Model, got.Model)
	case f.WeightModel != got.WeightModel:
		return mk("weight_model", f.WeightModel, got.WeightModel)
	case f.Subset != got.Subset:
		return mk("subset", f.Subset, got.Subset)
	case f.Seed != got.Seed:
		return mk("seed", f.Seed, got.Seed)
	case f.Machines != got.Machines:
		return mk("machines", f.Machines, got.Machines)
	case f.KMax != got.KMax:
		return mk("k_max", f.KMax, got.KMax)
	case f.EpsFloor != got.EpsFloor:
		return mk("eps_floor", f.EpsFloor, got.EpsFloor)
	}
	return nil
}

// ErrNoCheckpoint reports that the directory holds nothing restorable:
// no manifest, or a manifest with zero epochs. Callers typically treat
// it as "cold start" rather than as a failure.
var ErrNoCheckpoint = errors.New("store: no checkpoint to restore")

// FingerprintMismatchError reports a checkpoint produced under a
// different sampling configuration than the one trying to use it.
type FingerprintMismatchError struct {
	Field     string // the first mismatching Fingerprint field
	Want, Got string // stored value vs. offered value
}

func (e *FingerprintMismatchError) Error() string {
	return fmt.Sprintf("store: fingerprint mismatch on %s: checkpoint has %s, configuration has %s",
		e.Field, e.Want, e.Got)
}

// EpochRecord is one manifest row: a published segment and what it
// holds.
type EpochRecord struct {
	// Epoch is the resident sample's growth epoch the segment completes.
	Epoch uint64 `json:"epoch"`
	// File is the segment's name within the store directory.
	File string `json:"file"`
	// R1Sets/R2Sets are how many RR sets the segment adds per collection.
	R1Sets int `json:"r1_sets"`
	R2Sets int `json:"r2_sets"`
	// Bytes is the full segment file size, footer included.
	Bytes int64 `json:"bytes"`
	// CRC duplicates the segment's CRC32C footer for cross-checking.
	CRC uint32 `json:"crc"`
}

// manifest is the JSON document published atomically after every
// checkpoint.
type manifest struct {
	Version     int         `json:"version"`
	Fingerprint Fingerprint `json:"fingerprint"`
	// NextSeg numbers segment files monotonically so compaction can
	// never collide with a later checkpoint's name.
	NextSeg int           `json:"next_seg"`
	Epochs  []EpochRecord `json:"epochs"`
	// Sketch optionally references the serving fast tier's bottom-k
	// sketch segment (see sketch.go). Absent in pre-sketch manifests,
	// which keep restoring unchanged.
	Sketch *SketchRecord `json:"sketch,omitempty"`
	// Deltas lists the graph-update batches a dynamic service applied
	// (see delta.go). Their presence marks the RR segments as predating
	// in-place repairs: Restore refuses with ErrDynamicHistory. Absent
	// in static stores, which keep restoring unchanged.
	Deltas []DeltaRecord `json:"deltas,omitempty"`
}

// Store is an open checkpoint directory. It is single-writer by design:
// the resident service's grower is the only caller of Checkpoint, and
// growth is already serialized by the service.
type Store struct {
	dir string
	man manifest

	r1Stored, r2Stored int // RR sets already on disk, per collection
}

// Open attaches to (or initializes) the store at dir for the given
// fingerprint. An existing manifest with a different fingerprint is
// rejected with a *FingerprintMismatchError — appending to it would fork
// an incompatible sample history.
func Open(dir string, fp Fingerprint) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	man, err := readManifest(dir)
	if errors.Is(err, os.ErrNotExist) {
		return &Store{dir: dir, man: manifest{Version: manifestVersion, Fingerprint: fp}}, nil
	}
	if err != nil {
		return nil, err
	}
	if d := man.Fingerprint.diff(fp); d != nil {
		return nil, d
	}
	s := &Store{dir: dir, man: *man}
	for _, e := range man.Epochs {
		s.r1Stored += e.R1Sets
		s.r2Stored += e.R2Sets
	}
	return s, nil
}

// Epochs returns how many segments the store holds.
func (s *Store) Epochs() int { return len(s.man.Epochs) }

// segPath resolves a manifest-recorded segment name to its path.
func (s *Store) segPath(name string) string { return filepath.Join(s.dir, name) }

// LastEpoch returns the growth epoch of the newest segment (0 when
// empty).
func (s *Store) LastEpoch() uint64 {
	if len(s.man.Epochs) == 0 {
		return 0
	}
	return s.man.Epochs[len(s.man.Epochs)-1].Epoch
}

// StoredSets returns how many RR sets are on disk per collection.
func (s *Store) StoredSets() (r1, r2 int) { return s.r1Stored, s.r2Stored }

// Fingerprint returns the configuration the store is pinned to.
func (s *Store) Fingerprint() Fingerprint { return s.man.Fingerprint }

// Checkpoint appends the RR sets the collections gained since the
// previous checkpoint as one new segment labeled epoch, then atomically
// publishes the updated manifest. Published segments are never
// rewritten, mirroring rrset.Index.AppendFrom. It returns the bytes
// written (0 when nothing is new). The caller must pass the same
// collections, in the same grown-only state, across the store's
// lifetime; a live sample shorter than the stored prefix is rejected as
// a stale manifest.
func (s *Store) Checkpoint(epoch uint64, r1, r2 *rrset.Collection) (int64, error) {
	from1, from2 := s.r1Stored, s.r2Stored
	if from1 > r1.Count() || from2 > r2.Count() {
		return 0, manifestError(s.dir, sealed.ErrStale,
			"store holds %d+%d RR sets but the live collections hold only %d+%d",
			from1, from2, r1.Count(), r2.Count())
	}
	if from1 == r1.Count() && from2 == r2.Count() {
		return 0, nil
	}
	if last := s.LastEpoch(); len(s.man.Epochs) > 0 && epoch <= last {
		return 0, fmt.Errorf("store: checkpoint epoch %d not after the stored epoch %d", epoch, last)
	}
	name := fmt.Sprintf("%s%06d%s", segPrefix, s.man.NextSeg, segSuffix)
	path := filepath.Join(s.dir, name)
	rec, err := writeSegment(path, epoch, r1, from1, r2, from2)
	if err != nil {
		return 0, err
	}
	rec.File = name
	man := s.man
	man.NextSeg++
	man.Epochs = append(append([]EpochRecord(nil), s.man.Epochs...), rec)
	if err := writeManifest(s.dir, man); err != nil {
		os.Remove(path) // unpublished segment; do not leave an orphan
		return 0, err
	}
	s.man = man
	s.r1Stored = r1.Count()
	s.r2Stored = r2.Count()
	return rec.Bytes, nil
}

// Checkpoint is the one-shot form: open (or initialize) the store at
// dir for fp and append everything the collections hold beyond what is
// already stored, as a single segment labeled epoch.
func Checkpoint(dir string, fp Fingerprint, epoch uint64, r1, r2 *rrset.Collection) (int64, error) {
	s, err := Open(dir, fp)
	if err != nil {
		return 0, err
	}
	return s.Checkpoint(epoch, r1, r2)
}

// readManifest loads and sanity-checks dir's manifest.
func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, manifestError(dir, sealed.ErrFormat, "unparseable JSON: %v", err)
	}
	if man.Version != manifestVersion {
		return nil, manifestError(dir, sealed.ErrVersion, "version %d, this build reads %d", man.Version, manifestVersion)
	}
	for i, e := range man.Epochs {
		if e.R1Sets < 0 || e.R2Sets < 0 || e.Bytes <= 0 || e.File == "" {
			return nil, manifestError(dir, sealed.ErrFormat, "epoch record %d is malformed", i)
		}
		if i > 0 && e.Epoch <= man.Epochs[i-1].Epoch {
			return nil, manifestError(dir, sealed.ErrFormat,
				"epochs not strictly increasing at record %d (%d after %d)", i, e.Epoch, man.Epochs[i-1].Epoch)
		}
	}
	if sk := man.Sketch; sk != nil && (sk.File == "" || sk.Bytes <= 0 || sk.K < 2 || sk.Theta < 0) {
		return nil, manifestError(dir, sealed.ErrFormat, "sketch record is malformed")
	}
	for i, d := range man.Deltas {
		if d.File == "" || d.Bytes <= 0 || d.Ops <= 0 || d.Repaired < 0 {
			return nil, manifestError(dir, sealed.ErrFormat, "delta record %d is malformed", i)
		}
		if i > 0 && d.Seq <= man.Deltas[i-1].Seq {
			return nil, manifestError(dir, sealed.ErrFormat,
				"delta seqs not strictly increasing at record %d (%d after %d)", i, d.Seq, man.Deltas[i-1].Seq)
		}
	}
	return &man, nil
}

// manifestError reports a manifest that does not parse or disagrees with
// the store it describes.
func manifestError(dir string, cause error, format string, args ...any) *sealed.Error {
	return sealed.Corrupt("manifest", filepath.Join(dir, manifestName), cause, format, args...)
}

// writeManifest atomically replaces dir's manifest through
// sealed.Publish: a crash at any point leaves either the old or the new
// manifest, never a partial one.
func writeManifest(dir string, man manifest) error {
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding manifest: %w", err)
	}
	return sealed.Publish(filepath.Join(dir, manifestName), append(data, '\n'))
}
