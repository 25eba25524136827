package sketch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"dimm/internal/checksum"
	"dimm/internal/sealed"
)

// The sealed framing around a sketch: magic, version and the 24-byte
// sketch header before the payload, the CRC32C footer after it.
const (
	wireHeaderSize = 32
	wireFooterSize = 4
)

// corruption asserts err is the shared *sealed.Error with the given cause.
func corruption(t *testing.T, err, cause error) *sealed.Error {
	t.Helper()
	var se *sealed.Error
	if !errors.As(err, &se) || !errors.Is(err, cause) {
		t.Fatalf("got %v, want a *sealed.Error caused by %q", err, cause)
	}
	return se
}

func buildSet(t *testing.T) *Set {
	t.Helper()
	c, _ := genInstances(t, 120, 900, 31)
	s := mustNew(t, 120, Params{K: 16, Seed: 77})
	s.Absorb(c.Snapshot(), 2)
	return s
}

func TestWireRoundTripByteIdentity(t *testing.T) {
	s := buildSet(t)
	enc := s.Encode()
	if len(enc) != s.EncodedSize() {
		t.Fatalf("EncodedSize says %d, Encode produced %d", s.EncodedSize(), len(enc))
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.N() != s.N() || dec.K() != s.K() || dec.Seed() != s.Seed() || dec.Theta() != s.Theta() {
		t.Fatalf("header drifted through the round trip: %+v vs %+v", dec, s)
	}
	// Byte identity: re-encoding the decoded sketch reproduces the
	// original encoding exactly.
	if !bytes.Equal(enc, dec.Encode()) {
		t.Fatal("decode→encode is not byte-identical")
	}
	if err := dec.Verify(s.N(), Params{K: s.K(), Seed: s.Seed()}); err != nil {
		t.Fatalf("round-tripped sketch fails Verify: %v", err)
	}
	// The decoded sketch keeps absorbing where the original left off.
	more := buildSet(t)
	if !bytes.Equal(more.Encode(), dec.Encode()) {
		t.Fatal("decoded sketch diverged from an identically built one")
	}
}

// TestWireCorruptionMatrix: a flipped bit, a truncation, a foreign or
// future-version blob and a configuration mismatch must each surface as
// their own error, never as a silently adopted sketch.
func TestWireCorruptionMatrix(t *testing.T) {
	s := buildSet(t)
	enc := s.Encode()

	t.Run("bit flip", func(t *testing.T) {
		// Flip one bit in each region: header, payload, footer.
		for _, off := range []int{5, 16, wireHeaderSize + 9, len(enc) - 2} {
			bad := append([]byte(nil), enc...)
			bad[off] ^= 0x10
			_, err := Decode(bad)
			corruption(t, err, sealed.ErrChecksum)
		}
	})

	t.Run("truncation", func(t *testing.T) {
		// Below the fixed framing: the truncation error, with sizes.
		short := enc[:wireHeaderSize+wireFooterSize-3]
		_, err := Decode(short)
		if te := corruption(t, err, sealed.ErrTruncated); !strings.HasPrefix(te.Detail, fmt.Sprintf("%d bytes,", len(short))) {
			t.Fatalf("truncation error says %q, file had %d bytes", te.Detail, len(short))
		}
		// Mid-payload truncation still frames a footer, so the checksum
		// is what catches it — never a successful decode.
		if _, err := Decode(enc[:len(enc)/2]); err == nil {
			t.Fatal("half the bytes decoded without error")
		}
		// Empty input.
		_, err = Decode(nil)
		corruption(t, err, sealed.ErrTruncated)
	})

	t.Run("foreign bytes", func(t *testing.T) {
		// A checksummed blob with the wrong magic: ErrFormat, not
		// ErrChecksum — the bytes are intact, just not a sketch.
		other := append([]byte(nil), enc...)
		other[0] ^= 0xff
		// recompute a valid footer over the damaged body
		fixed, err := reframe(other)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Decode(fixed)
		corruption(t, err, sealed.ErrFormat)
	})

	t.Run("version skew", func(t *testing.T) {
		// An intact sketch from a future writer is told apart from rot.
		future := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint32(future[4:], 2)
		fixed, err := reframe(future)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Decode(fixed)
		corruption(t, err, sealed.ErrVersion)
	})

	t.Run("oversized node count", func(t *testing.T) {
		// A checksummed header declaring more nodes than the payload's
		// 4 bytes per node can hold is refused before anything is sized
		// by it. The first case sits one node above that bound.
		payload := len(enc) - wireHeaderSize - wireFooterSize
		for _, n := range []uint32{uint32(payload/4) + 1, 1 << 30, math.MaxUint32} {
			fixed, err := reframe(withNodeCount(enc, n))
			if err != nil {
				t.Fatal(err)
			}
			_, err = Decode(fixed)
			if fe := corruption(t, err, sealed.ErrFormat); !strings.HasPrefix(fe.Detail, "header declares") {
				t.Fatalf("n=%d: rejected by a later check (%q), not by the node-count bound", n, fe.Detail)
			}
		}
	})

	t.Run("fingerprint mismatch", func(t *testing.T) {
		dec, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			n     int
			p     Params
			field string
		}{
			{dec.N() + 1, Params{K: dec.K(), Seed: dec.Seed()}, "nodes"},
			{dec.N(), Params{K: dec.K() * 2, Seed: dec.Seed()}, "k"},
			{dec.N(), Params{K: dec.K(), Seed: dec.Seed() + 1}, "seed"},
		}
		for _, c := range cases {
			var me *MismatchError
			if err := dec.Verify(c.n, c.p); !errors.As(err, &me) {
				t.Fatalf("%s: want *MismatchError, got %v", c.field, err)
			} else if me.Field != c.field {
				t.Fatalf("want mismatch on %q, got %q", c.field, me.Field)
			}
		}
	})
}

// withNodeCount returns a copy of enc whose header declares n nodes.
func withNodeCount(enc []byte, n uint32) []byte {
	out := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(out[24:], n)
	return out
}

// FuzzDecode: every input decodes to a typed error or to a Set whose
// Encode reproduces it byte for byte, without panicking and without an
// allocation sized by a header count. Each input is also tried with its
// CRC32C footer recomputed, so mutations reach the structural checks
// behind the checksum. Seeded from the corruption matrix above, applied
// to a sketch small enough (≈ 0.5 KB) that the fuzzer's minimization of
// a new input finishes within a short budget.
func FuzzDecode(f *testing.F) {
	c, _ := genInstances(f, 16, 60, 31)
	small := mustNew(f, 16, Params{K: 4, Seed: 77})
	small.Absorb(c.Snapshot(), 1)
	enc := small.Encode()
	f.Add(enc)
	for _, off := range []int{5, 16, wireHeaderSize + 9, len(enc) - 2} {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0x10
		f.Add(bad)
	}
	f.Add(enc[:wireHeaderSize+wireFooterSize-3])
	f.Add(enc[:len(enc)/2])
	f.Add([]byte{})
	foreign := append([]byte(nil), enc...)
	foreign[0] ^= 0xff
	f.Add(foreign)
	f.Add(withNodeCount(enc, math.MaxUint32))
	f.Add(withNodeCount(enc, 1<<20))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		if fixed, err := reframe(data); err == nil {
			checkDecode(t, fixed)
		}
	})
}

func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	s, err := Decode(data)
	runtime.ReadMemStats(&ms)
	// The arena is at most 2 B of offsets per payload byte plus the ranks
	// themselves; anything far beyond the input's size came from a header.
	if alloc := ms.TotalAlloc - before; alloc > 8*uint64(len(data))+1<<16 {
		t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
	}
	if err != nil {
		var se *sealed.Error
		if !errors.As(err, &se) {
			t.Fatalf("untyped decode error %T: %v", err, err)
		}
		return
	}
	if !bytes.Equal(s.Encode(), data) {
		t.Fatal("decoded sketch does not re-encode to its input")
	}
}

// reframe recomputes the CRC32C footer over a (possibly modified) body.
func reframe(framed []byte) ([]byte, error) {
	if len(framed) < wireHeaderSize+wireFooterSize {
		return nil, errors.New("too short to reframe")
	}
	body := append([]byte(nil), framed[:len(framed)-wireFooterSize]...)
	var footer [wireFooterSize]byte
	binary.LittleEndian.PutUint32(footer[:], checksum.Sum(body))
	return append(body, footer[:]...), nil
}
