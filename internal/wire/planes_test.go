package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"jarvis/internal/telemetry"
)

// specials are the values a float codec loses first: NaNs with distinct
// payloads and signs, infinities, both zeros, subnormals, the extremes.
var specials = []float64{
	math.NaN(), math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8DEADBEEF0001),
	math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000FFFFFFFFFFFFF),
	math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.1, 12.75,
}

// lognormal returns n span durations as workload.SpanGen draws them.
func lognormal(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = 12 * math.Exp(rng.NormFloat64()*0.8)
	}
	return v
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// planesRoundTrip encodes vals behind a prefix, checks the layout — plane
// p, value i at byte p·n+i, most significant byte first — and decodes it
// back.
func planesRoundTrip(t *testing.T, vals []float64) {
	t.Helper()
	n := len(vals)
	dst := appendPlanes([]byte{0xDD}, vals)
	if len(dst) != 1+8*n || dst[0] != 0xDD {
		t.Fatalf("%d values encode to %d bytes", n, len(dst))
	}
	for _, i := range []int{0, n / 2, n - 1} {
		for p := 0; n > 0 && p < 8; p++ {
			if want := byte(math.Float64bits(vals[i]) >> (56 - 8*p)); dst[1+p*n+i] != want {
				t.Fatalf("%d values: plane %d value %d holds %#x, want %#x", n, p, i, dst[1+p*n+i], want)
			}
		}
	}
	got := make([]float64, n)
	readPlanes(got, dst[1:])
	if !sameBits(got, vals) {
		t.Fatalf("%d values: round trip changed bits", n)
	}
}

// TestFloatPlanesRoundTrip: a float column is bit-exact through the plane
// codec for every special value, at the lengths around the 8-value
// transpose and the 128-value block — on its own, and through whole
// frames, uncompressed and compressed, dense and behind a selection
// vector, read as SoA columns and as rows.
func TestFloatPlanesRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 127, 128, 129, 1000, 50_000} {
		vals := lognormal(n, int64(n))
		for i := range vals {
			if i%3 == 0 {
				vals[i] = specials[(i/3)%len(specials)]
			}
		}
		planesRoundTrip(t, vals)

		var recs telemetry.Batch
		for i, v := range vals {
			j := &telemetry.JobStats{Timestamp: int64(i), Tenant: "t", StatName: "op", Stat: v}
			recs = append(recs, telemetry.Record{Time: int64(i), WireSize: j.JobStatsWireSize(), Data: j})
		}
		for _, compress := range []bool{false, true} {
			fr := NewFrameReader(bytes.NewReader(writeColumnar(t, Frame{StreamID: 1, Records: recs}, compress)))
			f, err := fr.ReadFrame()
			if err != nil {
				t.Fatalf("%d values, compress %v: %v", n, compress, err)
			}
			if n == 0 {
				continue
			}
			sec := &f.Cols.Secs[0]
			if !sameBits(sec.Job.Stat, vals) {
				t.Fatalf("%d values, compress %v: dense frame round trip changed bits", n, compress)
			}
			var want []float64
			for i := 0; i < n; i += 3 {
				sec.Sel = append(sec.Sel, int32(i))
				want = append(want, vals[i])
			}
			back, err := NewFrameReader(bytes.NewReader(writeColumnar(t, Frame{StreamID: 1, Cols: f.Cols}, compress))).ReadRows()
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, len(back.Records))
			for i, rec := range back.Records {
				got[i] = rec.Data.(*telemetry.JobStats).Stat
			}
			if !sameBits(got, want) {
				t.Fatalf("%d values, compress %v: selected frame round trip changed bits", n, compress)
			}
		}
	}
}

// TestKeyRefFrontCache: the front cache only ever answers what the map
// would have — a frame whose key strings alias a few backing arrays and
// the same frame over fresh copies of every string encode to the same
// bytes, and a later frame never answers from an earlier frame's slots.
func TestKeyRefFrontCache(t *testing.T) {
	names := []string{"checkout", "search", "cart", "auth"}
	build := func(clone bool) telemetry.Batch {
		var recs telemetry.Batch
		for i := 0; i < 5000; i++ {
			tenant, op := names[i%3], names[(i*7)%4]
			if clone {
				tenant, op = strings.Clone(tenant), strings.Clone(op)
			}
			j := &telemetry.JobStats{Timestamp: int64(i), Tenant: tenant, StatName: op, Stat: 1}
			recs = append(recs, telemetry.Record{Time: int64(i), WireSize: j.JobStatsWireSize(), Data: j})
		}
		return recs
	}
	if !bytes.Equal(writeColumnar(t, Frame{Records: build(false)}, false), writeColumnar(t, Frame{Records: build(true)}, false)) {
		t.Fatal("aliased and copied key strings encode differently")
	}
	var e columnarEncoder
	e.begin(nil)
	s := names[0]
	if a, b := e.keyRef(s), e.keyRef(s); a != 1 || b != 1 {
		t.Fatalf("repeat of one string: refs %d, %d", a, b)
	}
	if e.keyRef("other") != 2 {
		t.Fatal("second string did not get the second reference")
	}
	e.begin(nil)
	if e.keyRef("other") != 1 || e.keyRef(s) != 2 {
		t.Fatal("a new frame answered from the previous frame's slots")
	}
}

// FuzzFloatColumn drives the plane codec with arbitrary columns and
// arbitrary bytes. Column leg: the input read as float64 bit patterns
// round-trips bit-exactly. Byte leg: the input read as the planes of a
// column decodes, never panics, and re-encodes to the same bytes.
func FuzzFloatColumn(f *testing.F) {
	le := func(vals ...float64) []byte {
		var out []byte
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add([]byte{})
	f.Add(le(specials...))
	f.Add(le(lognormal(129, 3)...))
	f.Add(appendPlanes(nil, lognormal(9, 5)))
	f.Add(appendPlanes(nil, specials))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		planesRoundTrip(t, vals)

		planes := data[:len(data)/8*8]
		readPlanes(vals, planes)
		if enc := appendPlanes(nil, vals); !bytes.Equal(enc, planes) {
			t.Fatal("decoded column re-encodes differently")
		}
	})
}
