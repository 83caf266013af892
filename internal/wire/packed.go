package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// The block codec every integer column of a columnar section goes
// through (see the layout in columnar.go):
//
//	column: 1B mode · [zigzag-varint first value, delta mode only] · block ...
//	block:  zigzag-varint min · 1B width (0..64) · ⌈count·width/8⌉ bytes
//
// A block covers up to packBlock consecutive values and stores value−min
// in width bits each, least-significant bit first. In delta mode the
// packed quantity is the difference to the previous value (wrapping in
// int64) and the column's first value travels as the varint, so the first
// block holds one value fewer. Width 0 — a constant block, or in delta
// mode a constant stride — costs the two header bytes. The encoder picks
// the mode whose blocks come out smaller on the column in hand; the
// decoder accepts either for any column.

const (
	packBlock = 128

	packPlain byte = 0
	packDelta byte = 1
)

// packable are the element types of the integer columns.
type packable interface{ ~int64 | ~uint64 | ~uint32 }

// blockSize returns the encoded size of one block of cnt values spanning
// [mn, mx].
func blockSize(mn, mx int64, cnt int) int {
	return uvarintLen(zigzag(mn)) + 1 + (cnt*bits.Len64(uint64(mx)-uint64(mn))+7)/8
}

func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// deltaCheaper reports whether vals encodes smaller in delta mode than in
// plain mode, by the exact block sizes of both.
func deltaCheaper[T packable](vals []T) bool {
	if len(vals) == 0 {
		return false
	}
	prev := int64(vals[0])
	plain, delta := 0, uvarintLen(zigzag(prev))
	for lo := 0; lo < len(vals); lo += packBlock {
		b := vals[lo:min(lo+packBlock, len(vals))]
		mn, mx := int64(b[0]), int64(b[0])
		ds := b[1:] // the values whose deltas this block holds
		if lo > 0 {
			ds = b
		}
		if len(ds) == 0 {
			plain += blockSize(mn, mx, 1)
			break
		}
		dmn := int64(ds[0]) - prev
		dmx := dmn
		for _, v := range ds {
			x := int64(v)
			d := x - prev
			prev = x
			mn, mx = min(mn, x), max(mx, x)
			dmn, dmx = min(dmn, d), max(dmx, d)
		}
		plain += blockSize(mn, mx, len(b))
		delta += blockSize(dmn, dmx, len(ds))
	}
	return delta < plain
}

// appendPacked appends the packed encoding of one integer column.
func appendPacked[T packable](dst []byte, vals []T) []byte {
	var blk [packBlock]int64
	if deltaCheaper(vals) {
		prev := int64(vals[0])
		dst = append(dst, packDelta)
		dst = binary.AppendUvarint(dst, zigzag(prev))
		for lo := 0; lo < len(vals); lo += packBlock {
			b := vals[max(lo, 1):min(lo+packBlock, len(vals))]
			for i, v := range b {
				blk[i] = int64(v) - prev
				prev = int64(v)
			}
			dst = appendBlock(dst, blk[:len(b)])
		}
		return dst
	}
	dst = append(dst, packPlain)
	for lo := 0; lo < len(vals); lo += packBlock {
		b := vals[lo:min(lo+packBlock, len(vals))]
		for i, v := range b {
			blk[i] = int64(v)
		}
		dst = appendBlock(dst, blk[:len(b)])
	}
	return dst
}

// appendBlock appends one block: header, then value−min at the block's
// width. An empty block (the first delta block of a one-value column) is
// not written.
func appendBlock(dst []byte, blk []int64) []byte {
	if len(blk) == 0 {
		return dst
	}
	mn, mx := blk[0], blk[0]
	for _, x := range blk[1:] {
		mn, mx = min(mn, x), max(mx, x)
	}
	w := uint(bits.Len64(uint64(mx) - uint64(mn)))
	dst = binary.AppendUvarint(dst, zigzag(mn))
	dst = append(dst, byte(w))
	if w == 0 {
		return dst
	}
	var acc uint64
	var nbits uint
	for _, x := range blk {
		d := uint64(x) - uint64(mn)
		acc |= d << nbits
		nbits += w
		if nbits >= 64 {
			dst = binary.LittleEndian.AppendUint64(dst, acc)
			nbits -= 64
			acc = d >> (w - nbits) // the bits of d that did not fit
		}
	}
	for ; nbits > 0; nbits -= min(nbits, 8) {
		dst = append(dst, byte(acc))
		acc >>= 8
	}
	return dst
}

// readPacked decodes one packed column of len(out) values into out. A
// mode or width outside the format and a block the buffer cannot hold
// are errors; a value wider than T keeps its low bits.
func readPacked[T packable](r *reader, out []T) {
	mode := r.u8()
	if r.err != nil {
		return
	}
	if mode > packDelta {
		r.err = fmt.Errorf("wire: packed column mode %d", mode)
		return
	}
	if len(out) == 0 {
		return
	}
	prev, lo := int64(0), 0
	if mode == packDelta {
		prev, lo = unzigzag(r.uvarint()), 1
		out[0] = T(prev)
	}
	var blk [packBlock]uint64
	var pad [packBlock*8 + 16]byte
	for hi := min(packBlock, len(out)); lo < len(out); lo, hi = hi, min(hi+packBlock, len(out)) {
		b := out[lo:hi]
		mn := unzigzag(r.uvarint())
		w := uint(r.u8())
		if w > 64 {
			r.err = fmt.Errorf("wire: packed block width %d", w)
		}
		data := r.take((len(b)*int(w) + 7) / 8)
		if r.err != nil {
			return
		}
		switch {
		case w == 0 && mode == packPlain:
			for i := range b {
				b[i] = T(mn)
			}
		case w == 0:
			for i := range b {
				prev += mn
				b[i] = T(prev)
			}
		case mode == packPlain:
			unpackBits(&pad, data, w, blk[:len(b)])
			for i, v := range blk[:len(b)] {
				b[i] = T(uint64(mn) + v)
			}
		default:
			unpackBits(&pad, data, w, blk[:len(b)])
			for i, v := range blk[:len(b)] {
				prev += int64(uint64(mn) + v)
				b[i] = T(prev)
			}
		}
	}
}

// unpackBits extracts len(out) values of w bits (1..64) from data, which
// holds exactly ⌈len(out)·w/8⌉ bytes. It works on a copy in pad, the
// caller's scratch: with room behind the block every value is read with
// an unconditional 8-byte load (plus one byte when it straddles nine),
// and whatever an earlier block left behind the copy is masked off.
func unpackBits(pad *[packBlock*8 + 16]byte, data []byte, w uint, out []uint64) {
	copy(pad[:], data)
	mask := ^uint64(0) >> (64 - w)
	for i := range out {
		p := uint(i) * w
		o, s := p>>3, p&7
		v := binary.LittleEndian.Uint64(pad[o:]) >> s
		if s+w > 64 {
			v |= uint64(pad[o+8]) << (64 - s)
		}
		out[i] = v & mask
	}
}
