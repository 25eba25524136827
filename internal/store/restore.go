package store

import (
	"errors"
	"os"

	"dimm/internal/rrset"
	"dimm/internal/sealed"
)

// Restored is a checkpoint materialized back into serving form: the two
// RR collections plus their inverted indexes, ready to answer queries
// with zero worker traffic.
type Restored struct {
	R1, R2     *rrset.Collection
	Idx1, Idx2 *rrset.Index
	// Epoch is the growth epoch the newest segment completed; a
	// restoring service resumes from it.
	Epoch uint64
	// Epochs is how many segments were replayed.
	Epochs int
	// Bytes is the total segment bytes read.
	Bytes int64
}

// Restore replays every stored segment in order and rebuilds the
// collections and inverted indexes for an n-node graph. It returns
// ErrNoCheckpoint when the store is empty, and the *sealed.Error of the
// first bad segment otherwise — a partially corrupt store restores
// nothing, and a failed Restore releases all it had built.
func (s *Store) Restore(n int) (res *Restored, err error) {
	if len(s.man.Epochs) == 0 {
		return nil, ErrNoCheckpoint
	}
	if len(s.man.Deltas) > 0 {
		return nil, ErrDynamicHistory
	}
	r1 := rrset.NewCollection(0)
	r2 := rrset.NewCollection(0)
	var idx1 *rrset.Index
	defer func() {
		if err != nil {
			if idx1 != nil {
				idx1.Release()
			}
			r1.Release()
			r2.Release()
		}
	}()
	var bytes int64
	for _, rec := range s.man.Epochs {
		if err := readSegment(s.segPath(rec.File), rec, r1, r2); err != nil {
			return nil, err
		}
		bytes += rec.Bytes
	}
	if r1.Count() != s.r1Stored || r2.Count() != s.r2Stored {
		return nil, manifestError(s.dir, sealed.ErrStale, "replayed set counts disagree with the manifest totals")
	}
	if idx1, err = rrset.BuildIndex(r1, n); err != nil {
		return nil, err
	}
	idx2, err := rrset.BuildIndex(r2, n)
	if err != nil {
		return nil, err
	}
	return &Restored{
		R1: r1, R2: r2, Idx1: idx1, Idx2: idx2,
		Epoch:  s.LastEpoch(),
		Epochs: len(s.man.Epochs),
		Bytes:  bytes,
	}, nil
}

// Restore is the one-shot form: open the store at dir, verify it was
// produced under fp, and materialize it for an n-node graph. A missing
// directory restores nothing (ErrNoCheckpoint), matching a first boot
// with -restore enabled.
func Restore(dir string, fp Fingerprint, n int) (*Restored, error) {
	if _, err := os.Stat(dir); errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoCheckpoint
	}
	s, err := Open(dir, fp)
	if err != nil {
		return nil, err
	}
	return s.Restore(n)
}
