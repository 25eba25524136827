package store

import (
	"encoding/binary"

	"dimm/internal/rrset"
	"dimm/internal/sealed"
)

// segKind is the RR segment's sealed-file kind ("DSEG", version 1). Its
// header, after magic and version (all little-endian):
//
//	offset  size  field
//	8       8     growth epoch this segment completes
//	16      4     R1 RR sets in the payload
//	20      4     R2 RR sets in the payload
//	24      8     payload length in bytes
//	32      ...   payload: R1 batch then R2 batch, AppendWireRange layout
var segKind = sealed.Kind{Name: "segment", Magic: 0x47455344, Version: 1, Header: 24}

// encodeSegment seals the RR sets r1[from1:] and r2[from2:] into one
// segment and returns its bytes and CRC.
func encodeSegment(epoch uint64, r1 *rrset.Collection, from1 int, r2 *rrset.Collection, from2 int) ([]byte, uint32) {
	payload := r1.WireSizeRange(from1) + r2.WireSizeRange(from2)
	buf := segKind.Begin(payload)
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r1.Count()-from1))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r2.Count()-from2))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(payload))
	buf = r1.AppendWireRange(buf, from1)
	buf = r2.AppendWireRange(buf, from2)
	return sealed.Seal(buf)
}

// writeSegment publishes the RR sets r1[from1:] and r2[from2:] as one
// segment file at path and returns its manifest record with File left
// blank for the caller to fill in.
func writeSegment(path string, epoch uint64, r1 *rrset.Collection, from1 int, r2 *rrset.Collection, from2 int) (EpochRecord, error) {
	data, crc := encodeSegment(epoch, r1, from1, r2, from2)
	if err := sealed.Publish(path, data); err != nil {
		return EpochRecord{}, err
	}
	return EpochRecord{
		Epoch:  epoch,
		R1Sets: r1.Count() - from1,
		R2Sets: r2.Count() - from2,
		Bytes:  int64(len(data)),
		CRC:    crc,
	}, nil
}

// readSegment loads the segment rec points at and appends its payload to
// r1/r2 (either may be nil to verify without materializing). The sealed
// ladder runs first; decodeSegment then checks the header against rec and
// decodes the payload.
func readSegment(path string, rec EpochRecord, r1, r2 *rrset.Collection) error {
	hdr, payload, err := segKind.ReadFile(path, rec.Bytes, rec.CRC)
	if err != nil {
		return err
	}
	return decodeSegment(path, rec, hdr, payload, r1, r2)
}

// decodeSegment checks an opened segment's header against its manifest
// record (ErrStale) and decodes its payload into r1/r2 (ErrFormat).
func decodeSegment(path string, rec EpochRecord, hdr, payload []byte, r1, r2 *rrset.Collection) error {
	epoch := binary.LittleEndian.Uint64(hdr[0:])
	n1 := int(binary.LittleEndian.Uint32(hdr[8:]))
	n2 := int(binary.LittleEndian.Uint32(hdr[12:]))
	if epoch != rec.Epoch || n1 != rec.R1Sets || n2 != rec.R2Sets {
		return sealed.Corrupt(segKind.Name, path, sealed.ErrStale,
			"holds epoch %d with %d+%d RR sets, manifest recorded epoch %d with %d+%d",
			epoch, n1, n2, rec.Epoch, rec.R1Sets, rec.R2Sets)
	}
	if l := binary.LittleEndian.Uint64(hdr[16:]); l != uint64(len(payload)) {
		return sealed.Corrupt(segKind.Name, path, sealed.ErrFormat, "declared payload %d bytes, file holds %d", l, len(payload))
	}
	if r1 == nil {
		r1 = rrset.NewCollection(0)
	}
	if r2 == nil {
		r2 = rrset.NewCollection(0)
	}
	got1, rest, err := rrset.DecodeWire(payload, r1)
	if err != nil {
		return sealed.Corrupt(segKind.Name, path, sealed.ErrFormat, "%v", err)
	}
	got2, rest, err := rrset.DecodeWire(rest, r2)
	if err != nil {
		return sealed.Corrupt(segKind.Name, path, sealed.ErrFormat, "%v", err)
	}
	if got1 != n1 || got2 != n2 || len(rest) != 0 {
		return sealed.Corrupt(segKind.Name, path, sealed.ErrFormat,
			"payload decodes to %d+%d RR sets with %d trailing bytes, header declared %d+%d",
			got1, got2, len(rest), n1, n2)
	}
	return nil
}
