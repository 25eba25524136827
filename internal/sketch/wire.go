package sketch

import (
	"encoding/binary"
	"fmt"

	"dimm/internal/checksum"
)

// Sketch checkpoint layout (all little-endian), the same
// header+CRC32C-footer discipline as internal/store segments:
//
//	offset  size  field
//	0       4     magic "DSKC" (0x434b5344)
//	4       4     format version (1)
//	8       8     rank-stream seed
//	16      8     theta (instances absorbed)
//	24      4     n (node-space size)
//	28      4     k (bottom-k size)
//	32      ...   payload: per node, u32 size then size ascending u64 ranks
//	end-4   4     CRC32C over header + payload
const (
	wireMagic      = 0x434b5344 // "DSKC"
	wireVersion    = 1
	wireHeaderSize = 32
	wireFooterSize = 4
)

// ChecksumError reports an encoded sketch whose CRC32C footer does not
// match its bytes — a flipped bit anywhere in the blob.
type ChecksumError struct {
	Want, Got uint32
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("sketch: encoded sketch failed its CRC32C check (footer %#x, computed %#x)", e.Want, e.Got)
}

// TruncatedError reports an encoded sketch shorter than its framing
// requires — an interrupted or clipped write.
type TruncatedError struct {
	WantBytes, GotBytes int64
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("sketch: encoded sketch is %d bytes, needs at least %d", e.GotBytes, e.WantBytes)
}

// FormatError reports an encoded sketch whose checksum verified but
// whose structure is inconsistent (wrong magic or version, payload that
// does not decode to the declared shape — usually a foreign file).
type FormatError struct {
	Reason string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("sketch: malformed sketch encoding: %s", e.Reason)
}

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
	return wireHeaderSize + 4*s.n + 8*len(s.ranks) + wireFooterSize
}

// Encode serializes the sketch set. The output is a deterministic
// function of the sketch contents — nodes in id order, ranks ascending —
// so builds at different parallelism (which produce identical sketches)
// produce identical bytes.
func (s *Set) Encode() []byte {
	buf := make([]byte, wireHeaderSize, s.EncodedSize())
	binary.LittleEndian.PutUint32(buf[0:], wireMagic)
	binary.LittleEndian.PutUint32(buf[4:], wireVersion)
	binary.LittleEndian.PutUint64(buf[8:], s.seed)
	binary.LittleEndian.PutUint64(buf[16:], uint64(s.theta))
	binary.LittleEndian.PutUint32(buf[24:], uint32(s.n))
	binary.LittleEndian.PutUint32(buf[28:], uint32(s.k))
	var u32 [4]byte
	var u64 [8]byte
	for v := 0; v < s.n; v++ {
		slot := s.nodeRanks(uint32(v))
		binary.LittleEndian.PutUint32(u32[:], uint32(len(slot)))
		buf = append(buf, u32[:]...)
		for _, r := range slot {
			binary.LittleEndian.PutUint64(u64[:], r)
			buf = append(buf, u64[:]...)
		}
	}
	crc := checksum.Sum(buf)
	binary.LittleEndian.PutUint32(u32[:], crc)
	return append(buf, u32[:]...)
}

// Decode reconstructs a sketch set from Encode output, rejecting any
// damage with a typed error: TruncatedError for clipped bytes,
// ChecksumError for a flipped bit, FormatError for structural
// inconsistency.
func Decode(data []byte) (*Set, error) {
	if len(data) < wireHeaderSize+wireFooterSize {
		return nil, &TruncatedError{WantBytes: wireHeaderSize + wireFooterSize, GotBytes: int64(len(data))}
	}
	body := data[:len(data)-wireFooterSize]
	wantCRC := binary.LittleEndian.Uint32(data[len(data)-wireFooterSize:])
	if got := checksum.Sum(body); got != wantCRC {
		return nil, &ChecksumError{Want: wantCRC, Got: got}
	}
	if magic := binary.LittleEndian.Uint32(body[0:]); magic != wireMagic {
		return nil, &FormatError{Reason: fmt.Sprintf("bad magic %#x", magic)}
	}
	if v := binary.LittleEndian.Uint32(body[4:]); v != wireVersion {
		return nil, &FormatError{Reason: fmt.Sprintf("sketch version %d, this build reads %d", v, wireVersion)}
	}
	seed := binary.LittleEndian.Uint64(body[8:])
	theta := int64(binary.LittleEndian.Uint64(body[16:]))
	n := int(binary.LittleEndian.Uint32(body[24:]))
	k := int(binary.LittleEndian.Uint32(body[28:]))
	if n < 1 || k < 2 || theta < 0 {
		return nil, &FormatError{Reason: fmt.Sprintf("implausible header: n=%d k=%d theta=%d", n, k, theta)}
	}
	payload := body[wireHeaderSize:]
	// Every node costs at least its 4-byte size, so a larger n cannot be
	// honest; checking before New keeps allocation bounded by the input.
	if n > len(payload)/4 {
		return nil, &FormatError{Reason: fmt.Sprintf("header declares %d nodes, the %d-byte payload holds at most %d", n, len(payload), len(payload)/4)}
	}
	s, err := New(n, Params{K: k, Seed: seed})
	if err != nil {
		return nil, &FormatError{Reason: err.Error()}
	}
	s.theta = theta
	s.ranks = make([]uint64, 0, (len(payload)-4*n)/8)
	off := 0
	for v := 0; v < n; v++ {
		if off+4 > len(payload) {
			return nil, &FormatError{Reason: fmt.Sprintf("payload ends inside node %d's size", v)}
		}
		sz := int(binary.LittleEndian.Uint32(payload[off:]))
		off += 4
		if sz > k {
			return nil, &FormatError{Reason: fmt.Sprintf("node %d holds %d ranks, k is %d", v, sz, k)}
		}
		if off+8*sz > len(payload) {
			return nil, &FormatError{Reason: fmt.Sprintf("payload ends inside node %d's ranks", v)}
		}
		var prev uint64
		for i := 0; i < sz; i++ {
			r := binary.LittleEndian.Uint64(payload[off:])
			off += 8
			if i > 0 && r <= prev {
				return nil, &FormatError{Reason: fmt.Sprintf("node %d's ranks are not strictly ascending", v)}
			}
			s.ranks = append(s.ranks, r)
			prev = r
		}
		s.start[v+1] = len(s.ranks)
	}
	if off != len(payload) {
		return nil, &FormatError{Reason: fmt.Sprintf("%d trailing payload bytes", len(payload)-off)}
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
