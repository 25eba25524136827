package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"dimm/internal/mutate"
	"dimm/internal/sealed"
)

// Graph-delta segments record the dynamic half of a store's history:
// every edge-update batch a dynamic service applied, in order, next to
// the RR segments its growth epochs produced. They make the store an
// auditable journal — dimmstore info/verify show exactly which graph
// the stored sample was repaired to — but they also poison restore:
// an update repairs RR sets *in place* in the resident mirrors, and
// published RR segments are never rewritten, so once a delta exists the
// stored sets predate the repairs and no longer describe any graph the
// service served. Restore refuses with ErrDynamicHistory rather than
// resurrecting a sample whose certificates were computed for a graph
// that no longer exists.
//
// deltaKind is the delta segment's sealed-file kind ("DDLT", version 1).
// Its header, after magic and version (all little-endian):
//
//	offset  size  field
//	8       8     graph version the batch advanced the graph to (= seq)
//	16      8     sample epoch published after the repair
//	24      4     RR sets repaired in place across both mirrors
//	28      4     flags (bit 0: mirrors were refetched wholesale)
//	32      8     payload length in bytes
//	40      ...   payload: mutate.EncodeBatch wire bytes
var deltaKind = sealed.Kind{Name: "delta", Magic: 0x544C4444, Version: 1, Header: 32}

const (
	deltaPrefix = "delta-"
	deltaSuffix = ".gd"

	deltaFlagRemirrored = 1 << 0
)

// ErrDynamicHistory reports a restore attempt on a store whose history
// includes graph-delta segments: the stored RR segments predate the
// in-place repairs those deltas drove, so no combination of them
// reconstructs the sample the service actually held.
var ErrDynamicHistory = errors.New(
	"store: history includes graph-update deltas; the stored RR segments predate in-place repairs and cannot be restored (dynamic services start cold)")

// DeltaRecord is one manifest row for a graph-delta segment.
type DeltaRecord struct {
	// Seq is the batch's sequence number, which is also the graph version
	// it advanced the graph to.
	Seq uint64 `json:"seq"`
	// Epoch is the sample epoch the service published after the repair.
	Epoch uint64 `json:"epoch"`
	// Ops is how many edge updates the batch holds.
	Ops int `json:"ops"`
	// Repaired is how many resident RR sets were regenerated in place;
	// Remirrored records the fallback where the mirrors were refetched
	// wholesale instead.
	Repaired   int  `json:"repaired"`
	Remirrored bool `json:"remirrored,omitempty"`
	// File is the segment's name within the store directory; Bytes its
	// full size, footer included; CRC duplicates the CRC32C footer.
	File  string `json:"file"`
	Bytes int64  `json:"bytes"`
	CRC   uint32 `json:"crc"`
}

// Deltas returns how many graph-delta segments the store holds.
func (s *Store) Deltas() int { return len(s.man.Deltas) }

// AppendDelta seals one applied edge-update batch as a graph-delta
// segment and publishes it in the manifest. epoch is the sample epoch
// the service published after the repair; repaired and remirrored
// summarize what the repair did (see DeltaRecord). Batches must arrive
// in sequence order, matching the graph's own versioning.
func (s *Store) AppendDelta(epoch uint64, b mutate.Batch, repaired int, remirrored bool) (int64, error) {
	if len(b.Ops) == 0 {
		return 0, fmt.Errorf("store: empty delta batch")
	}
	if n := len(s.man.Deltas); n > 0 && b.Seq <= s.man.Deltas[n-1].Seq {
		return 0, fmt.Errorf("store: delta seq %d not after the stored seq %d", b.Seq, s.man.Deltas[n-1].Seq)
	}
	name := fmt.Sprintf("%s%06d%s", deltaPrefix, s.man.NextSeg, deltaSuffix)
	path := filepath.Join(s.dir, name)
	data, crc := encodeDelta(epoch, b, repaired, remirrored)
	if err := sealed.Publish(path, data); err != nil {
		return 0, err
	}
	man := s.man
	man.NextSeg++
	man.Deltas = append(append([]DeltaRecord(nil), s.man.Deltas...), DeltaRecord{
		Seq:        b.Seq,
		Epoch:      epoch,
		Ops:        len(b.Ops),
		Repaired:   repaired,
		Remirrored: remirrored,
		File:       name,
		Bytes:      int64(len(data)),
		CRC:        crc,
	})
	if err := writeManifest(s.dir, man); err != nil {
		os.Remove(path) // unpublished segment; do not leave an orphan
		return 0, err
	}
	s.man = man
	return int64(len(data)), nil
}

// encodeDelta seals one batch into a delta segment and returns its bytes
// and CRC.
func encodeDelta(epoch uint64, b mutate.Batch, repaired int, remirrored bool) ([]byte, uint32) {
	var flags uint32
	if remirrored {
		flags |= deltaFlagRemirrored
	}
	payload := mutate.EncodedSize(b)
	buf := deltaKind.Begin(payload)
	buf = binary.LittleEndian.AppendUint64(buf, b.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(repaired))
	buf = binary.LittleEndian.AppendUint32(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(payload))
	return sealed.Seal(mutate.EncodeBatch(buf, b))
}

// readDelta loads and fully verifies the delta segment rec points at,
// returning the decoded batch: the sealed ladder, then decodeDelta.
func readDelta(path string, rec DeltaRecord) (mutate.Batch, error) {
	hdr, payload, err := deltaKind.ReadFile(path, rec.Bytes, rec.CRC)
	if err != nil {
		return mutate.Batch{}, err
	}
	return decodeDelta(path, rec, hdr, payload)
}

// decodeDelta checks an opened delta segment's header against its
// manifest record (ErrStale) and decodes its batch (ErrFormat).
func decodeDelta(path string, rec DeltaRecord, hdr, payload []byte) (mutate.Batch, error) {
	seq := binary.LittleEndian.Uint64(hdr[0:])
	epoch := binary.LittleEndian.Uint64(hdr[8:])
	repaired := int(binary.LittleEndian.Uint32(hdr[16:]))
	flags := binary.LittleEndian.Uint32(hdr[20:])
	remirrored := flags&deltaFlagRemirrored != 0
	if seq != rec.Seq || epoch != rec.Epoch || repaired != rec.Repaired || remirrored != rec.Remirrored {
		return mutate.Batch{}, sealed.Corrupt(deltaKind.Name, path, sealed.ErrStale,
			"holds seq %d epoch %d (%d repaired), manifest recorded seq %d epoch %d (%d repaired)",
			seq, epoch, repaired, rec.Seq, rec.Epoch, rec.Repaired)
	}
	if flags&^deltaFlagRemirrored != 0 {
		return mutate.Batch{}, sealed.Corrupt(deltaKind.Name, path, sealed.ErrFormat, "unknown flag bits %#x", flags)
	}
	if l := binary.LittleEndian.Uint64(hdr[24:]); l != uint64(len(payload)) {
		return mutate.Batch{}, sealed.Corrupt(deltaKind.Name, path, sealed.ErrFormat, "declared payload %d bytes, file holds %d", l, len(payload))
	}
	b, used, err := mutate.DecodeBatch(payload)
	if err != nil {
		return mutate.Batch{}, sealed.Corrupt(deltaKind.Name, path, sealed.ErrFormat, "%v", err)
	}
	if used != len(payload) {
		return mutate.Batch{}, sealed.Corrupt(deltaKind.Name, path, sealed.ErrFormat,
			"payload decodes to %d bytes with %d trailing", used, len(payload)-used)
	}
	if b.Seq != seq || len(b.Ops) != rec.Ops {
		return mutate.Batch{}, sealed.Corrupt(deltaKind.Name, path, sealed.ErrFormat,
			"payload batch has seq %d with %d ops, header/manifest declared seq %d with %d",
			b.Seq, len(b.Ops), seq, rec.Ops)
	}
	return b, nil
}

// ReplayDeltas reads and verifies every graph-delta segment in order,
// returning the decoded batches — the tooling view of the store's
// dynamic history (dimmstore info prints it; a future offline compactor
// could apply it to a stored graph).
func (s *Store) ReplayDeltas() ([]mutate.Batch, error) {
	batches := make([]mutate.Batch, 0, len(s.man.Deltas))
	for _, rec := range s.man.Deltas {
		b, err := readDelta(s.segPath(rec.File), rec)
		if err != nil {
			return nil, err
		}
		batches = append(batches, b)
	}
	return batches, nil
}
