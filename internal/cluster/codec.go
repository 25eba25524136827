package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// The delta codec is the one wire form of every (node, value) pair list
// the worker↔master protocol carries: the msgDegreeDelta and msgSelect
// replies and the baseline corrections of a msgUpdate repair reply. Every
// producer drains a coverage.DeltaAccum, so the lists it encodes hold
// strictly ascending node ids with non-zero values — positive coverage
// counts, or signed corrections on the repair path. The layout:
//
//	uvarint  pair count
//	byte     header: Rice parameter k in bits 0–4, bit 7 set for a signed
//	         list, bits 5–6 zero
//	bits     per pair, least significant bit first in each byte:
//	           gap = node − previous node − 1 (the first pair's previous
//	           node is −1) as a Rice code: ⌊gap / 2^k⌋ zero bits, a one,
//	           then the gap's k low bits;
//	           the value as an Elias-γ code of u (the value itself, or
//	           its zig-zag for a signed list): ⌊log₂ u⌋ zero bits, a one,
//	           then u's ⌊log₂ u⌋ bits below its leading one
//	         then zero bits up to the byte boundary.
//
// k is not a choice: it is max(0, ⌊log₂((last + 1) / count)⌋ − 1) for
// the list's last node, so a decoder recomputes it and rejects any
// other. With that and minimal varints and zero padding, every list has
// exactly one encoding, and the decoder accepts only the bytes its
// encoder writes. A pair costs at least 2 bits (k = 0, gap 0, value 1),
// which bounds the count a payload can declare; a full-vector reply —
// every node touched, as a degree sync of a large round is — costs 2 to
// 5 bits per node.

const (
	pairsSignedFlag = 0x80
	pairsKMask      = 0x1f
)

// riceK is the canonical Rice parameter of a list of count ≥ 1 pairs
// whose last node is last. The gaps' mean is at most m = (last + 1) /
// count; for geometric gaps of mean m the best Rice parameter is about
// log₂(m · ln 2) ≈ log₂ m − 0.5, and ⌊log₂ m⌋ − 1 comes within one of it
// with no search over the list.
func riceK(count int, last uint32) uint {
	m := (uint64(last) + 1) / uint64(count)
	return uint(max(bits.Len64(m)-2, 0))
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// pairValue maps a value to the γ-coded integer u ≥ 1.
func pairValue(v int32, signed bool) uint64 {
	if signed {
		return uint64(uint32(v<<1) ^ uint32(v>>31))
	}
	return uint64(v)
}

// appendPairs appends the codec's encoding of pairs to b. It refuses a
// list outside the codec's domain: nodes not strictly ascending, a zero
// value, or a negative one in an unsigned list.
func appendPairs(b []byte, pairs []DeltaPair, signed bool) ([]byte, error) {
	var k uint
	if len(pairs) > 0 {
		k = riceK(len(pairs), pairs[len(pairs)-1].Node)
	}
	b = binary.AppendUvarint(b, uint64(len(pairs)))
	h := byte(k)
	if signed {
		h |= pairsSignedFlag
	}
	b = append(b, h)
	// Typical lists cost about k + 4 bits a pair; the writer grows past
	// that. The loop keeps the writer's state in locals and hands it to
	// the bitWriter only for a pair whose codes outgrow one 64-bit word.
	out := slices.Grow(b, len(pairs)*int(k+4)/8+8)
	out = out[:cap(out)]
	o, acc, n := len(b), uint64(0), uint(0)
	kMask := uint64(1)<<k - 1
	prev := int64(-1)
	for i, p := range pairs {
		if int64(p.Node) <= prev || p.Dec == 0 || (!signed && p.Dec < 0) {
			return nil, fmt.Errorf("cluster: delta pair %d (node %d, value %d) after node %d is outside the codec's domain", i, p.Node, p.Dec, prev)
		}
		gap := uint64(int64(p.Node) - prev - 1)
		prev = int64(p.Node)
		q, r := gap>>k, gap&kMask
		u := pairValue(p.Dec, signed)
		z := uint(bits.Len64(u) - 1)
		gw, vw := uint(q)+1+k, 2*z+1
		if q >= 64 || gw+vw > 64 {
			w := bitWriter{out, o, acc, n}
			w.zeros(q)
			w.put(1|r<<1, 1+k)
			w.put((u^1<<z)<<(z+1)|1<<z, vw)
			out, o, acc, n = w.out, w.o, w.acc, w.n
			continue
		}
		// w.put of the pair's two codes at once, inline. Every shift is
		// under 64, which the masks tell the compiler so that each
		// compiles to one instruction.
		v := r<<((q+1)&63) | 1<<(q&63) | ((u^1<<z)<<((z+1)&63)|1<<(z&63))<<(gw&63)
		acc |= v << (n & 63)
		if n+gw+vw < 64 {
			n += gw + vw
			continue
		}
		if o+8 > len(out) {
			out = growBits(out, o)
		}
		binary.LittleEndian.PutUint64(out[o:], acc)
		o += 8
		acc = v >> 1 >> ((63 - n) & 63) // v's bits past the word: none if n was 0
		n += gw + vw - 64
	}
	w := bitWriter{out, o, acc, n}
	w.flush()
	return w.out[:w.o], nil
}

// growBits returns out's first o bytes in a buffer with room for more.
func growBits(out []byte, o int) []byte {
	out = slices.Grow(out[:o], max(o/2, 64))
	return out[:cap(out)]
}

// bitWriter packs codes least significant bit first into out from byte
// o on, one 64-bit store per word filled.
type bitWriter struct {
	out []byte
	o   int    // next byte of out
	acc uint64 // pending bits
	n   uint   // pending bit count, < 64
}

// put writes the low width bits of v (v < 2^width, width ≤ 64).
func (w *bitWriter) put(v uint64, width uint) {
	w.acc |= v << w.n
	if w.n+width < 64 {
		w.n += width
		return
	}
	if w.o+8 > len(w.out) {
		w.out = growBits(w.out, w.o)
	}
	binary.LittleEndian.PutUint64(w.out[w.o:], w.acc)
	w.o += 8
	w.acc = v >> (64 - w.n) // 0 when w.n = 0: a shift by 64 clears
	w.n += width - 64
}

// flush writes the pending bits' bytes; the unused high bits are zero.
func (w *bitWriter) flush() {
	if w.n == 0 {
		return
	}
	if w.o+8 > len(w.out) {
		w.out = growBits(w.out, w.o)
	}
	binary.LittleEndian.PutUint64(w.out[w.o:], w.acc)
	w.o += int(w.n+7) / 8
	w.acc, w.n = 0, 0
}

// zeros writes q zero bits.
func (w *bitWriter) zeros(q uint64) {
	for ; q >= 64; q -= 64 {
		w.put(0, 64)
	}
	w.put(0, uint(q))
}

// peek returns the 64 bits of b from bit pos on, zero past the end. At
// least 57 of them are b's own bits unless the end is nearer.
func peek(b []byte, pos uint64) uint64 {
	if i := pos >> 3; i+8 <= uint64(len(b)) {
		return binary.LittleEndian.Uint64(b[i:]) >> (pos & 7)
	}
	return peekTail(b, pos)
}

func peekTail(b []byte, pos uint64) uint64 {
	var v uint64
	for i, j := pos>>3, uint(0); i < uint64(len(b)); i, j = i+1, j+8 {
		v |= uint64(b[i]) << j
	}
	return v >> (pos & 7)
}

var errPairsRun = errors.New("unary code runs past the end of the payload")

// decodePairs decodes a pair list that fills body exactly, appending the
// pairs to buf[:0]. signed is the form the caller expects, and must match
// the header's flag. Decoding reads eight bytes at a time wherever eight
// remain and never copies the payload; it allocates only when buf cannot
// hold the declared count, which the payload's size bounds.
func decodePairs(body []byte, buf []DeltaPair, signed bool) ([]DeltaPair, error) {
	count, n := binary.Uvarint(body)
	if n <= 0 || n != uvarintLen(count) {
		return nil, errors.New("malformed pair count")
	}
	if len(body) == n {
		return nil, errors.New("pair list header missing")
	}
	h := body[n]
	body = body[n+1:]
	k := uint(h & pairsKMask)
	if h&^(pairsKMask|pairsSignedFlag) != 0 {
		return nil, fmt.Errorf("reserved header bits set (%#x)", h)
	}
	if (h&pairsSignedFlag != 0) != signed {
		return nil, fmt.Errorf("pair list signedness %v, want %v", !signed, signed)
	}
	nbits := uint64(len(body)) * 8
	if count > nbits/(uint64(k)+2) {
		return nil, fmt.Errorf("%d pairs cannot fit in %d payload bytes at k = %d", count, len(body), k)
	}
	buf = slices.Grow(buf[:0], int(count))
	zmax := uint64(30) // unsigned values are positive int32s
	if signed {
		zmax = 31 // zig-zagged int32s fill uint32
	}
	maxQ := uint64(math.MaxUint32) >> k
	kMask := uint64(1)<<k - 1
	pos := uint64(0)
	next := uint64(0) // the node a zero gap lands on
	out := buf[:count]
	for i := range out {
		// Gap: unary quotient, then k remainder bits. One load usually
		// holds the pair's both codes; w and avail track its unread bits.
		w := peek(body, pos)
		avail := 64 - pos&7
		var q uint64
		if w != 0 {
			q = uint64(bits.TrailingZeros64(w))
		} else {
			var err error
			if q, err = unaryRun(body, pos, nbits); err != nil {
				return nil, err
			}
		}
		if q > maxQ {
			return nil, fmt.Errorf("pair %d: gap quotient %d overflows node ids", i, q)
		}
		gw := q + 1 + uint64(k)
		var r uint64
		if gw <= avail {
			r = w >> ((q + 1) & 63) & kMask // kMask = 0 if q + 1 = 64
			w = w >> 1 >> ((gw - 1) & 63)   // gw may be 64
			avail -= gw
		} else {
			r = peek(body, pos+q+1) & kMask
			avail = 0
		}
		pos += gw
		node := next + (q<<(k&63) | r)
		if node > math.MaxUint32 {
			return nil, fmt.Errorf("pair %d: node %d out of range", i, node)
		}
		next = node + 1
		// Value: Elias-γ.
		z := uint64(bits.TrailingZeros64(w))
		if 2*z+1 > avail {
			w = peek(body, pos)
			avail = 64 - pos&7
			z = uint64(bits.TrailingZeros64(w))
		}
		if z > zmax {
			return nil, fmt.Errorf("pair %d: value code of %d bits out of range", i, 2*z+1)
		}
		u := uint64(1) << (z & 63)
		if 2*z+1 <= avail {
			u |= w >> ((z + 1) & 63) & (u - 1)
		} else {
			u |= peek(body, pos+z+1) & (u - 1)
		}
		pos += 2*z + 1
		if pos > nbits {
			return nil, errPairsRun
		}
		v := int32(u)
		if signed {
			v = int32(uint32(u>>1)) ^ -int32(u&1)
		}
		out[i] = DeltaPair{Node: uint32(node), Dec: v}
	}
	if (pos+7)/8 != uint64(len(body)) {
		return nil, fmt.Errorf("%d trailing bytes after the pairs", uint64(len(body))-(pos+7)/8)
	}
	if pos < nbits && peek(body, pos) != 0 {
		return nil, errors.New("non-zero padding bits")
	}
	if count > 0 {
		if last := out[count-1].Node; k != riceK(int(count), last) {
			return nil, fmt.Errorf("rice parameter %d, want %d for %d pairs up to node %d", k, riceK(int(count), last), count, last)
		}
	} else if k != 0 {
		return nil, fmt.Errorf("rice parameter %d on an empty list", k)
	}
	return out, nil
}

// unaryRun counts the zero bits from pos up to the next one bit, failing
// when none comes before nbits.
func unaryRun(b []byte, pos, nbits uint64) (uint64, error) {
	for start := pos; pos < nbits; {
		if w := peek(b, pos); w != 0 {
			return pos - start + uint64(bits.TrailingZeros64(w)), nil
		}
		pos += 64 - pos&7
	}
	return 0, errPairsRun
}
