package wire

import (
	"encoding/binary"
	"math"
	"slices"
)

// The float column codec: a column of n floats travels as eight byte
// planes of n bytes each, plane p holding byte p of every value's
// big-endian IEEE-754 image (why, and what it measures, in columnar.go).

// appendPlanes appends one float column to dst.
func appendPlanes(dst []byte, vals []float64) []byte {
	n, base := len(vals), len(dst)
	dst = slices.Grow(dst, 8*n)[:base+8*n]
	var pl [8][]byte
	for p := range pl {
		pl[p] = dst[base+p*n : base+(p+1)*n]
	}
	// Eight values at a time, as an 8×8 byte matrix transposed in
	// registers, so a plane is written a word, not a byte, at a time.
	i := 0
	for ; i+8 <= n; i += 8 {
		v := vals[i : i+8 : i+8]
		r0, r1, r2, r3, r4, r5, r6, r7 := transpose8x8(
			math.Float64bits(v[0]), math.Float64bits(v[1]), math.Float64bits(v[2]), math.Float64bits(v[3]),
			math.Float64bits(v[4]), math.Float64bits(v[5]), math.Float64bits(v[6]), math.Float64bits(v[7]))
		binary.BigEndian.PutUint64(pl[0][i:], r0)
		binary.BigEndian.PutUint64(pl[1][i:], r1)
		binary.BigEndian.PutUint64(pl[2][i:], r2)
		binary.BigEndian.PutUint64(pl[3][i:], r3)
		binary.BigEndian.PutUint64(pl[4][i:], r4)
		binary.BigEndian.PutUint64(pl[5][i:], r5)
		binary.BigEndian.PutUint64(pl[6][i:], r6)
		binary.BigEndian.PutUint64(pl[7][i:], r7)
	}
	for ; i < n; i++ {
		b := math.Float64bits(vals[i])
		for p := range pl {
			pl[p][i] = byte(b >> (56 - 8*p))
		}
	}
	return dst
}

// readPlanes reassembles out, one float column, from the 8·len(out) bytes
// of its planes.
func readPlanes(out []float64, raw []byte) {
	n := len(out)
	var pl [8][]byte
	for p := range pl {
		pl[p] = raw[p*n : (p+1)*n]
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		v := out[i : i+8 : i+8]
		r0, r1, r2, r3, r4, r5, r6, r7 := transpose8x8(
			binary.BigEndian.Uint64(pl[0][i:]), binary.BigEndian.Uint64(pl[1][i:]), binary.BigEndian.Uint64(pl[2][i:]), binary.BigEndian.Uint64(pl[3][i:]),
			binary.BigEndian.Uint64(pl[4][i:]), binary.BigEndian.Uint64(pl[5][i:]), binary.BigEndian.Uint64(pl[6][i:]), binary.BigEndian.Uint64(pl[7][i:]))
		v[0], v[1], v[2], v[3] = math.Float64frombits(r0), math.Float64frombits(r1), math.Float64frombits(r2), math.Float64frombits(r3)
		v[4], v[5], v[6], v[7] = math.Float64frombits(r4), math.Float64frombits(r5), math.Float64frombits(r6), math.Float64frombits(r7)
	}
	for ; i < n; i++ {
		var b uint64
		for p := range pl {
			b = b<<8 | uint64(pl[p][i])
		}
		out[i] = math.Float64frombits(b)
	}
}

// transpose8x8 transposes the 8×8 byte matrix whose row k is rk, most
// significant byte first — values in, planes out, and back — by swapping
// the 4-, 2- and 1-byte blocks across the diagonal. (Scalars, because the
// compiler keeps an array out of registers.)
func transpose8x8(r0, r1, r2, r3, r4, r5, r6, r7 uint64) (_, _, _, _, _, _, _, _ uint64) {
	r0, r4 = swapBlocks(r0, r4, 32, 0x00000000FFFFFFFF)
	r1, r5 = swapBlocks(r1, r5, 32, 0x00000000FFFFFFFF)
	r2, r6 = swapBlocks(r2, r6, 32, 0x00000000FFFFFFFF)
	r3, r7 = swapBlocks(r3, r7, 32, 0x00000000FFFFFFFF)
	r0, r2 = swapBlocks(r0, r2, 16, 0x0000FFFF0000FFFF)
	r1, r3 = swapBlocks(r1, r3, 16, 0x0000FFFF0000FFFF)
	r4, r6 = swapBlocks(r4, r6, 16, 0x0000FFFF0000FFFF)
	r5, r7 = swapBlocks(r5, r7, 16, 0x0000FFFF0000FFFF)
	r0, r1 = swapBlocks(r0, r1, 8, 0x00FF00FF00FF00FF)
	r2, r3 = swapBlocks(r2, r3, 8, 0x00FF00FF00FF00FF)
	r4, r5 = swapBlocks(r4, r5, 8, 0x00FF00FF00FF00FF)
	r6, r7 = swapBlocks(r6, r7, 8, 0x00FF00FF00FF00FF)
	return r0, r1, r2, r3, r4, r5, r6, r7
}

// swapBlocks exchanges the bits of a under m with the bits of b under m<<sh.
func swapBlocks(a, b uint64, sh uint, m uint64) (uint64, uint64) {
	t := (a ^ b>>sh) & m
	return a ^ t, b ^ t<<sh
}
