package sketch

import (
	"encoding/binary"
	"fmt"

	"dimm/internal/sealed"
)

// wire is the sketch's sealed-file kind ("DSKC", version 1; see
// internal/sealed). Its header, after magic and version (all
// little-endian):
//
//	offset  size  field
//	8       8     rank-stream seed
//	16      8     theta (instances absorbed)
//	24      4     n (node-space size)
//	28      4     k (bottom-k size)
//	32      ...   payload: per node, u32 size then size ascending u64 ranks
var wire = sealed.Kind{Name: "sketch", Magic: 0x434b5344, Version: 1, Header: 24}

// MismatchError reports a decoded sketch built under a different
// configuration than the one trying to adopt it — the sketch analogue of
// store.FingerprintMismatchError.
type MismatchError struct {
	Field     string
	Want, Got string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("sketch: mismatch on %s: sketch has %s, configuration wants %s",
		e.Field, e.Got, e.Want)
}

// EncodedSize returns how many bytes Encode produces.
func (s *Set) EncodedSize() int {
	return wire.Size(4*s.n + 8*len(s.ranks))
}

// Encode serializes the sketch set. The output is a deterministic
// function of the sketch contents — nodes in id order, ranks ascending —
// so builds at different parallelism (which produce identical sketches)
// produce identical bytes.
func (s *Set) Encode() []byte {
	buf := wire.Begin(4*s.n + 8*len(s.ranks))
	buf = binary.LittleEndian.AppendUint64(buf, s.seed)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.theta))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.n))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.k))
	for v := 0; v < s.n; v++ {
		slot := s.nodeRanks(uint32(v))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(slot)))
		for _, r := range slot {
			buf = binary.LittleEndian.AppendUint64(buf, r)
		}
	}
	data, _ := sealed.Seal(buf)
	return data
}

// Decode reconstructs a sketch set from Encode output. Any damage is a
// *sealed.Error: the sealed ladder's for clipped bytes, a flipped bit, or
// a foreign or future-version blob, and ErrFormat for a payload that
// does not decode to the declared shape.
func Decode(data []byte) (*Set, error) {
	hdr, payload, err := wire.Open(data)
	if err != nil {
		return nil, err
	}
	return decode("", hdr, payload)
}

// ReadFile reads a sketch file that a store manifest recorded as size
// bytes with footer CRC crc, through sealed.Kind.ReadFile, and decodes
// it.
func ReadFile(path string, size int64, crc uint32) (*Set, error) {
	hdr, payload, err := wire.ReadFile(path, size, crc)
	if err != nil {
		return nil, err
	}
	return decode(path, hdr, payload)
}

// decode builds the sketch an opened sealed blob holds; path names it in
// errors.
func decode(path string, hdr, payload []byte) (*Set, error) {
	bad := func(format string, args ...any) (*Set, error) {
		return nil, sealed.Corrupt(wire.Name, path, sealed.ErrFormat, format, args...)
	}
	seed := binary.LittleEndian.Uint64(hdr[0:])
	theta := int64(binary.LittleEndian.Uint64(hdr[8:]))
	n := int(binary.LittleEndian.Uint32(hdr[16:]))
	k := int(binary.LittleEndian.Uint32(hdr[20:]))
	if n < 1 || k < 2 || theta < 0 {
		return bad("implausible header: n=%d k=%d theta=%d", n, k, theta)
	}
	// Every node costs at least its 4-byte size, so a larger n cannot be
	// honest; checking before New keeps allocation bounded by the input.
	if n > len(payload)/4 {
		return bad("header declares %d nodes, the %d-byte payload holds at most %d", n, len(payload), len(payload)/4)
	}
	s, err := New(n, Params{K: k, Seed: seed})
	if err != nil {
		return bad("%v", err)
	}
	s.theta = theta
	s.ranks = make([]uint64, 0, (len(payload)-4*n)/8)
	off := 0
	for v := 0; v < n; v++ {
		if off+4 > len(payload) {
			return bad("payload ends inside node %d's size", v)
		}
		sz := int(binary.LittleEndian.Uint32(payload[off:]))
		off += 4
		if sz > k {
			return bad("node %d holds %d ranks, k is %d", v, sz, k)
		}
		if off+8*sz > len(payload) {
			return bad("payload ends inside node %d's ranks", v)
		}
		var prev uint64
		for i := 0; i < sz; i++ {
			r := binary.LittleEndian.Uint64(payload[off:])
			off += 8
			if i > 0 && r <= prev {
				return bad("node %d's ranks are not strictly ascending", v)
			}
			s.ranks = append(s.ranks, r)
			prev = r
		}
		s.start[v+1] = len(s.ranks)
	}
	if off != len(payload) {
		return bad("%d trailing payload bytes", len(payload)-off)
	}
	return s, nil
}

// Verify checks a decoded sketch against the configuration that wants to
// adopt it, returning a *MismatchError naming the first differing field.
func (s *Set) Verify(n int, p Params) error {
	mk := func(field string, want, got any) error {
		return &MismatchError{Field: field, Want: fmt.Sprint(want), Got: fmt.Sprint(got)}
	}
	switch {
	case s.n != n:
		return mk("nodes", n, s.n)
	case s.k != p.K:
		return mk("k", p.K, s.k)
	case s.seed != p.Seed:
		return mk("seed", p.Seed, s.seed)
	}
	return nil
}
