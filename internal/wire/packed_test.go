package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// packRoundTrip encodes vals, decodes them back and checks equality and
// that the column consumed exactly its own bytes.
func packRoundTrip(t *testing.T, vals []int64) []byte {
	t.Helper()
	enc := appendPacked(nil, vals)
	r := &reader{buf: append(slices.Clone(enc), 0xA5)} // a byte that is not the column's
	got := make([]int64, len(vals))
	readPacked(r, got)
	if r.err != nil {
		t.Fatalf("decode of %d values: %v", len(vals), r.err)
	}
	if r.off != len(enc) {
		t.Fatalf("decode consumed %d of %d bytes", r.off, len(enc))
	}
	if !slices.Equal(got, vals) {
		t.Fatalf("round trip changed %d values:\n got %v\nwant %v", len(vals), got, vals)
	}
	return enc
}

// TestPackedColumnShapes walks the codec's corners deterministically:
// every width 0–64 in both modes, the block-boundary lengths, and the
// int64 extremes whose deltas wrap.
func TestPackedColumnShapes(t *testing.T) {
	lengths := []int{0, 1, 2, 127, 128, 129, 255, 256, 257, 1000}
	for w := 0; w <= 64; w++ {
		span := uint64(0)
		if w > 0 {
			span = ^uint64(0) >> (64 - w)
		}
		for _, n := range lengths {
			plain := make([]int64, n) // values spread over exactly w bits
			steps := make([]int64, n) // strides spread over exactly w bits
			acc := int64(-3)
			for i := range plain {
				x := span
				if i%3 != 0 {
					x = span / uint64(i%7+1)
				}
				plain[i] = int64(x + 3<<62) // a base the spread wraps past MaxInt64 from
				acc += int64(x) + 5         // wraps for wide strides
				steps[i] = acc
			}
			packRoundTrip(t, plain)
			packRoundTrip(t, steps)
		}
	}
	edge := []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1, 0, -1, 1, math.MinInt64, math.MinInt64, math.MaxInt64}
	packRoundTrip(t, edge)
	packRoundTrip(t, slices.Repeat(edge, 40))

	// The shapes the format exists for cost what the header says: a
	// constant column and a constant-stride column are two bytes a block.
	constant := slices.Repeat([]int64{0x0A000001}, 1000)
	if enc := packRoundTrip(t, constant); len(enc) > 1+8*(5+1) {
		t.Errorf("constant column of 1000 took %d bytes", len(enc))
	}
	stride := make([]int64, 1000)
	for i := range stride {
		stride[i] = 1_700_000_000_000_000 + int64(i)*26
	}
	if enc := packRoundTrip(t, stride); len(enc) != 1+8+8*2 {
		t.Errorf("constant-stride column of 1000 took %d bytes, want mode + first value + 8 two-byte blocks", len(enc))
	}
	narrow := make([]int64, 1000)
	for i := range narrow {
		narrow[i] = 400 + int64(i*7919%1500)
	}
	if enc := packRoundTrip(t, narrow); len(enc) > 1+8*3+1000*11/8+8 {
		t.Errorf("11-bit column of 1000 took %d bytes", len(enc))
	}

	// The typed instantiations agree with the int64 one byte for byte.
	u32 := []uint32{0, 1, math.MaxUint32, 7, 7, 7}
	u64 := []uint64{0, 1, math.MaxUint64, 1 << 63, 7}
	as64 := func(n int, at func(int) int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = at(i)
		}
		return out
	}
	if !bytes.Equal(appendPacked(nil, u32), appendPacked(nil, as64(len(u32), func(i int) int64 { return int64(u32[i]) }))) {
		t.Error("uint32 column packs differently from its int64 values")
	}
	if !bytes.Equal(appendPacked(nil, u64), appendPacked(nil, as64(len(u64), func(i int) int64 { return int64(u64[i]) }))) {
		t.Error("uint64 column packs differently from its int64 values")
	}
	got := make([]uint64, len(u64))
	readPacked(&reader{buf: appendPacked(nil, u64)}, got)
	if !slices.Equal(got, u64) {
		t.Errorf("uint64 round trip: %v", got)
	}
}

// TestPackedColumnRejects pins the decoder's refusals: an unknown mode,
// a width above 64 and a block cut short are errors, never panics or
// silent zeros.
func TestPackedColumnRejects(t *testing.T) {
	enc := appendPacked(nil, []int64{5, 900, 13, 77, 4000})
	for cut := 0; cut < len(enc); cut++ {
		r := &reader{buf: enc[:cut]}
		readPacked(r, make([]int64, 5))
		if r.err == nil {
			t.Fatalf("column truncated to %d of %d bytes decoded", cut, len(enc))
		}
	}
	for _, bad := range [][]byte{
		{2},                   // mode
		{packPlain, 0, 65},    // width
		{packPlain, 0, 255},   // width
		{packDelta, 2, 0, 65}, // width behind a first value
	} {
		r := &reader{buf: append(bad, make([]byte, 64)...)}
		readPacked(r, make([]int64, 3))
		if r.err == nil {
			t.Errorf("column % x decoded", bad)
		}
	}
}

// FuzzPackedColumn drives the block codec with arbitrary columns and
// arbitrary bytes. Column leg: the fuzz input is read as a column of
// int64 values (shifted so neighbours of MinInt64/MaxInt64 and wrapping
// deltas occur), which must round-trip in all three element types. Byte
// leg: the same input is decoded as a packed column of a length taken
// from its first byte; whatever decodes must re-encode to a column that
// decodes to the same values, and nothing may panic.
func FuzzPackedColumn(f *testing.F) {
	le := func(vals ...int64) []byte {
		var out []byte
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, uint64(v))
		}
		return out
	}
	f.Add([]byte{})
	f.Add(le(7))
	f.Add(le(math.MinInt64, math.MaxInt64, math.MinInt64+1, -1, 0, 1))
	for _, n := range []int{127, 128, 129, 700} {
		ramp, wide := make([]int64, n), make([]int64, n)
		for i := range ramp {
			ramp[i] = 1_700_000_000_000_000 + int64(i)*26
			wide[i] = int64(uint64(i) * 0x9E3779B97F4A7C15)
		}
		f.Add(le(ramp...))
		f.Add(le(wide...))
		f.Add(appendPacked([]byte{byte(n)}, ramp))
		f.Add(appendPacked([]byte{byte(n)}, wide))
	}
	f.Add([]byte{3, packPlain, 0, 65})
	f.Add([]byte{200, packDelta, 1, 2, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]int64, len(data)/8)
		for i := range vals {
			vals[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
		packRoundTrip(t, vals)
		u32, u64 := make([]uint32, len(vals)), make([]uint64, len(vals))
		for i, v := range vals {
			u32[i], u64[i] = uint32(v), uint64(v)
		}
		got32, got64 := make([]uint32, len(vals)), make([]uint64, len(vals))
		r := &reader{buf: appendPacked(appendPacked(nil, u32), u64)}
		readPacked(r, got32)
		readPacked(r, got64)
		if r.err != nil || r.off != len(r.buf) || !slices.Equal(got32, u32) || !slices.Equal(got64, u64) {
			t.Fatalf("typed round trip: err %v, consumed %d of %d", r.err, r.off, len(r.buf))
		}

		if len(data) == 0 {
			return
		}
		n := int(data[0]) * 3 // up to six blocks
		out := make([]int64, n)
		r = &reader{buf: data[1:]}
		readPacked(r, out)
		if r.err != nil {
			return // corrupt input is fine, panics are not
		}
		if r.off > len(r.buf) {
			t.Fatalf("decode consumed %d of %d bytes", r.off, len(r.buf))
		}
		packRoundTrip(t, out)
	})
}
