package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dimm/internal/rrset"
)

// Info is a read-only summary of a store directory, cheap to compute
// (manifest plus a directory listing, no segment reads).
type Info struct {
	Dir         string
	Fingerprint Fingerprint
	Epochs      []EpochRecord
	// R1Sets/R2Sets are the manifest's total RR sets per collection.
	R1Sets, R2Sets int
	// Bytes is the summed size of published segments.
	Bytes int64
	// Sketch is the fast tier's published sketch segment, nil when the
	// store holds none.
	Sketch *SketchRecord
	// Deltas are the graph-update batches a dynamic service applied,
	// in sequence order; non-empty marks the store unrestorable (the RR
	// segments predate the in-place repairs the deltas drove).
	Deltas []DeltaRecord
	// RepairedSets sums Deltas' repaired counts.
	RepairedSets int
	// Orphans are segment-looking files in the directory the manifest
	// does not reference — debris from a crash between segment publish
	// and manifest publish. Harmless, removable with Prune.
	Orphans []string
}

// Inspect summarizes the store at dir without reading segment payloads.
func Inspect(dir string) (*Info, error) {
	man, err := readManifest(dir)
	if os.IsNotExist(err) {
		return nil, ErrNoCheckpoint
	}
	if err != nil {
		return nil, err
	}
	info := &Info{Dir: dir, Fingerprint: man.Fingerprint, Epochs: man.Epochs, Sketch: man.Sketch, Deltas: man.Deltas}
	referenced := make(map[string]bool, len(man.Epochs)+len(man.Deltas)+1)
	for _, e := range man.Epochs {
		info.R1Sets += e.R1Sets
		info.R2Sets += e.R2Sets
		info.Bytes += e.Bytes
		referenced[e.File] = true
	}
	if man.Sketch != nil {
		info.Bytes += man.Sketch.Bytes
		referenced[man.Sketch.File] = true
	}
	for _, d := range man.Deltas {
		info.RepairedSets += d.Repaired
		info.Bytes += d.Bytes
		referenced[d.File] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing %s: %w", dir, err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || referenced[name] {
			continue
		}
		if strings.HasPrefix(name, segPrefix) || strings.HasPrefix(name, sketchPrefix) ||
			strings.HasPrefix(name, deltaPrefix) || strings.Contains(name, ".tmp-") {
			info.Orphans = append(info.Orphans, name)
		}
	}
	return info, nil
}

// Verify reads every published file end to end — the sealed ladder
// (size, CRC32C, magic, version, manifest CRC), header consistency, full
// decode — and returns the first *sealed.Error found, or nil when the
// store would restore cleanly.
func Verify(dir string) (*Info, error) {
	info, err := Inspect(dir)
	if err != nil {
		return nil, err
	}
	for _, rec := range info.Epochs {
		if err := readSegment(filepath.Join(dir, rec.File), rec, nil, nil); err != nil {
			return info, err
		}
	}
	if info.Sketch != nil {
		if _, err := readSketch(dir, info.Sketch); err != nil {
			return info, err
		}
	}
	for _, rec := range info.Deltas {
		if _, err := readDelta(filepath.Join(dir, rec.File), rec); err != nil {
			return info, err
		}
	}
	return info, nil
}

// Prune deletes orphan segment and temp files the manifest does not
// reference, returning their names. Published segments are never
// touched.
func Prune(dir string) ([]string, error) {
	info, err := Inspect(dir)
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, name := range info.Orphans {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return removed, fmt.Errorf("store: pruning %s: %w", name, err)
		}
		removed = append(removed, name)
	}
	return removed, nil
}

// Compact merges all published segments into a single one labeled with
// the newest epoch, then publishes a one-row manifest. Restore output is
// unchanged (same sets, same order); what changes is startup I/O — one
// sequential read instead of many. No-op when the store holds one
// segment or fewer. Old segments are removed only after the new manifest
// is durable, so a crash mid-compact leaves a restorable store plus
// orphans.
func Compact(dir string) error {
	man, err := readManifest(dir)
	if os.IsNotExist(err) {
		return ErrNoCheckpoint
	}
	if err != nil {
		return err
	}
	if len(man.Epochs) <= 1 {
		return nil
	}
	r1 := rrset.NewCollection(0)
	defer r1.Release()
	r2 := rrset.NewCollection(0)
	defer r2.Release()
	for _, rec := range man.Epochs {
		if err := readSegment(filepath.Join(dir, rec.File), rec, r1, r2); err != nil {
			return err
		}
	}
	last := man.Epochs[len(man.Epochs)-1]
	name := fmt.Sprintf("%s%06d%s", segPrefix, man.NextSeg, segSuffix)
	rec, err := writeSegment(filepath.Join(dir, name), last.Epoch, r1, 0, r2, 0)
	if err != nil {
		return err
	}
	rec.File = name
	old := man.Epochs
	man.NextSeg++
	man.Epochs = []EpochRecord{rec}
	if err := writeManifest(dir, *man); err != nil {
		os.Remove(filepath.Join(dir, name))
		return err
	}
	for _, e := range old {
		os.Remove(filepath.Join(dir, e.File))
	}
	return nil
}
