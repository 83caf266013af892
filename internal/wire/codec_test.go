package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"jarvis/internal/telemetry"
)

func roundTrip(t *testing.T, rec telemetry.Record) telemetry.Record {
	t.Helper()
	buf, err := EncodeRecord(nil, rec)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, n, err := DecodeRecord(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(buf) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(buf))
	}
	return got
}

func TestPingProbeRoundTrip(t *testing.T) {
	p := &telemetry.PingProbe{
		Timestamp: 1234567, SrcIP: 0x0A000001, SrcCluster: 3,
		DstIP: 0x0A000002, DstCluster: 4, RTTMicros: 812, ErrCode: 0,
	}
	rec := telemetry.NewProbeRecord(p)
	rec.Window = 9
	got := roundTrip(t, rec)
	if got.Time != rec.Time || got.Window != 9 || got.WireSize != telemetry.PingProbeWireSize {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Data, p) {
		t.Fatalf("payload = %+v, want %+v", got.Data, p)
	}
}

func TestToRProbeRoundTrip(t *testing.T) {
	p := &telemetry.ToRProbe{Timestamp: 55, SrcToR: 1, DstToR: 2, RTTMicros: 777}
	rec := telemetry.Record{Time: 55, WireSize: telemetry.ToRProbeWireSize, Data: p}
	got := roundTrip(t, rec)
	if !reflect.DeepEqual(got.Data, p) {
		t.Fatalf("payload = %+v", got.Data)
	}
	if got.WireSize != telemetry.ToRProbeWireSize {
		t.Fatalf("wire size = %d", got.WireSize)
	}
}

func TestLogLineRoundTrip(t *testing.T) {
	rec := telemetry.NewLogRecord(99, "tenant name=x, cpu util=7")
	got := roundTrip(t, rec)
	if !reflect.DeepEqual(got.Data, rec.Data) {
		t.Fatalf("payload = %+v", got.Data)
	}
	if got.WireSize != rec.WireSize {
		t.Fatalf("wire size = %d, want %d", got.WireSize, rec.WireSize)
	}
}

func TestJobStatsRoundTrip(t *testing.T) {
	p := &telemetry.JobStats{Timestamp: 5, Tenant: "t1", StatName: "cpu util", Stat: 74.25, Bucket: -3}
	rec := telemetry.Record{Time: 5, WireSize: p.JobStatsWireSize(), Data: p}
	got := roundTrip(t, rec)
	if !reflect.DeepEqual(got.Data, p) {
		t.Fatalf("payload = %+v", got.Data)
	}
}

func TestAggRowRoundTrip(t *testing.T) {
	row := telemetry.NewAggRow(telemetry.StrKey("a|b|1"), 7, 3.5)
	row.Observe(math.Inf(1))
	rec := telemetry.NewAggRecord(row, 1000)
	got := roundTrip(t, rec)
	gotRow := got.Data.(*telemetry.AggRow)
	if *gotRow != row {
		t.Fatalf("row = %+v, want %+v", *gotRow, row)
	}
}

func TestWatermarkRoundTrip(t *testing.T) {
	rec := telemetry.Record{Time: 42, Data: &Watermark{Time: 42}}
	got := roundTrip(t, rec)
	if wm, ok := got.Data.(*Watermark); !ok || wm.Time != 42 {
		t.Fatalf("payload = %+v", got.Data)
	}
}

func TestEncodeUnknownPayload(t *testing.T) {
	_, err := EncodeRecord(nil, telemetry.Record{Data: struct{}{}})
	if err == nil {
		t.Fatal("expected error for unknown payload type")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeRecord(nil); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("nil buf: %v", err)
	}
	if _, _, err := DecodeRecord([]byte{0xFF, 0, 0}); !errors.Is(err, ErrUnknownTag) {
		t.Fatalf("unknown tag: %v", err)
	}
	// Truncated probe.
	full, _ := EncodeRecord(nil, telemetry.NewProbeRecord(&telemetry.PingProbe{}))
	for cut := 1; cut < len(full); cut++ {
		if _, _, err := DecodeRecord(full[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestPingProbeQuickRoundTrip(t *testing.T) {
	f := func(ts int64, src, dst, rtt, errc uint32, window int64) bool {
		p := &telemetry.PingProbe{Timestamp: ts, SrcIP: src, DstIP: dst, RTTMicros: rtt, ErrCode: errc}
		rec := telemetry.NewProbeRecord(p)
		rec.Window = window
		buf, err := EncodeRecord(nil, rec)
		if err != nil {
			return false
		}
		got, n, err := DecodeRecord(buf)
		return err == nil && n == len(buf) && got.Window == window &&
			reflect.DeepEqual(got.Data, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	batch := telemetry.Batch{
		telemetry.NewProbeRecord(&telemetry.PingProbe{Timestamp: 1, RTTMicros: 100}),
		telemetry.NewProbeRecord(&telemetry.PingProbe{Timestamp: 2, RTTMicros: 200}),
		telemetry.NewAggRecord(telemetry.NewAggRow(telemetry.NumKey(4), 1, 9), 10),
	}
	frames := []Frame{
		{StreamID: 2, Source: 17, Records: batch},
		{StreamID: 3, Source: 17, Records: nil},
	}
	for _, f := range frames {
		if err := fw.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}

	fr := NewFrameReader(&buf)
	for i, want := range frames {
		got, err := fr.ReadRows()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.StreamID != want.StreamID || got.Source != want.Source {
			t.Fatalf("frame %d header = %+v", i, got)
		}
		if len(got.Records) != len(want.Records) {
			t.Fatalf("frame %d: %d records, want %d", i, len(got.Records), len(want.Records))
		}
		for j := range want.Records {
			if !reflect.DeepEqual(got.Records[j].Data, want.Records[j].Data) {
				t.Fatalf("frame %d record %d payload mismatch", i, j)
			}
		}
	}
	if _, err := fr.ReadFrame(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestFrameReaderTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.WriteFrame(Frame{StreamID: 1, Records: telemetry.Batch{
		telemetry.NewProbeRecord(&telemetry.PingProbe{}),
	}}); err != nil {
		t.Fatal(err)
	}
	fw.Flush()
	data := buf.Bytes()
	fr := NewFrameReader(bytes.NewReader(data[:len(data)-3]))
	if _, err := fr.ReadFrame(); err == nil {
		t.Fatal("expected error on truncated frame body")
	}
}

func TestFrameReaderBadLength(t *testing.T) {
	raw := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	fr := NewFrameReader(bytes.NewReader(raw))
	if _, err := fr.ReadFrame(); err == nil {
		t.Fatal("expected error for oversized frame length")
	}
}

// inflateBombFrame is a 25-byte compressed frame whose body declares a
// MaxFrameSize payload ahead of a five-byte (empty) flate stream.
var inflateBombFrame = []byte{0, 0, 0, 21, 0, 0, 0, 1, 0, 0, 0, 3, 0xFF, 0xFF, 0xFF, 0xFD,
	0x80, 0x80, 0x80, 0x20, // uvarint 64 MiB
	0x01, 0x00, 0x00, 0xFF, 0xFF}

// TestInflateDeclaredLengthBound: the declared raw length of a compressed
// frame sizes the inflate buffer, so one the stream behind it could never
// expand to must be refused before anything is allocated from it.
func TestInflateDeclaredLengthBound(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewFrameReader(bytes.NewReader(inflateBombFrame)).ReadFrame()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 5-byte flate stream declaring 64 MiB decoded")
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Fatalf("refusing a %d-byte frame allocated %d KiB", len(inflateBombFrame), grown>>10)
	}
}

func TestFrameTooShortHeader(t *testing.T) {
	// Frame body shorter than 12 bytes must be rejected.
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 4, 1, 2, 3, 4})
	fr := NewFrameReader(&buf)
	if _, err := fr.ReadFrame(); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("got %v", err)
	}
}

func BenchmarkEncodeProbe(b *testing.B) {
	rec := telemetry.NewProbeRecord(&telemetry.PingProbe{Timestamp: 1, SrcIP: 2, DstIP: 3, RTTMicros: 4})
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		var err error
		buf, err = EncodeRecord(buf, rec)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeProbe(b *testing.B) {
	rec := telemetry.NewProbeRecord(&telemetry.PingProbe{Timestamp: 1, SrcIP: 2, DstIP: 3, RTTMicros: 4})
	buf, _ := EncodeRecord(nil, rec)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeRecord(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestQuantileRowRoundTrip(t *testing.T) {
	q := telemetry.NewQuantileRow(telemetry.StrKey("a|b"), 3, 0, 10000, 50)
	for i := 0; i < 500; i++ {
		q.Observe(float64(i * 25))
	}
	rec := telemetry.Record{Time: 99, Window: 3, WireSize: q.WireSize(), Data: q}
	got := roundTrip(t, rec)
	gq := got.Data.(*telemetry.QuantileRow)
	if gq.Key != q.Key || gq.Total != q.Total || gq.Lo != q.Lo || gq.Hi != q.Hi {
		t.Fatalf("header: %+v vs %+v", gq, q)
	}
	if len(gq.Counts) != len(q.Counts) {
		t.Fatalf("counts len: %d vs %d", len(gq.Counts), len(q.Counts))
	}
	for i := range q.Counts {
		if gq.Counts[i] != q.Counts[i] {
			t.Fatalf("count %d differs", i)
		}
	}
	for _, p := range []float64{0.1, 0.5, 0.99} {
		if gq.Quantile(p) != q.Quantile(p) {
			t.Fatalf("quantile %v differs", p)
		}
	}
}

func TestQuantileRowTruncation(t *testing.T) {
	q := telemetry.NewQuantileRow(telemetry.NumKey(7), 1, 0, 100, 8)
	q.Observe(50)
	full, err := EncodeRecord(nil, telemetry.Record{Data: q})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(full); cut++ {
		if _, _, err := DecodeRecord(full[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

// DecodeRecord must never panic on arbitrary bytes (transport safety).
func TestDecodeRecordNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 5000; trial++ {
		n := rng.IntN(64)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(rng.IntN(256))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %x: %v", buf, r)
				}
			}()
			_, _, _ = DecodeRecord(buf)
		}()
	}
}

func TestHelloAckTermRoundTrip(t *testing.T) {
	h := &Hello{Source: 3, Seq: 17, Version: WireV4, Term: 5}
	got := roundTrip(t, telemetry.Record{WireSize: 29, Data: h})
	if !reflect.DeepEqual(got.Data, h) {
		t.Fatalf("hello = %+v", got.Data)
	}
	a := &Ack{Source: 3, Seq: 16, Version: WireV4, Term: 6}
	got = roundTrip(t, telemetry.Record{WireSize: 29, Data: a})
	if !reflect.DeepEqual(got.Data, a) {
		t.Fatalf("ack = %+v", got.Data)
	}
}

func TestHelloAckAdmissionExtensionRoundTrip(t *testing.T) {
	h := &Hello{Source: 3, Seq: 17, Version: WireV4, Term: 5, Compress: true, Class: 3, Tenant: "acme"}
	got := roundTrip(t, telemetry.Record{WireSize: 29, Data: h})
	if !reflect.DeepEqual(got.Data, h) {
		t.Fatalf("hello = %+v", got.Data)
	}
	a := &Ack{Source: 3, Seq: 16, Version: WireV4, Term: 6, ThrottleMicros: 750_000, Replay: true}
	got = roundTrip(t, telemetry.Record{WireSize: 29, Data: a})
	if !reflect.DeepEqual(got.Data, a) {
		t.Fatalf("ack = %+v", got.Data)
	}
}

// A pre-admission peer's Hello/Ack simply ends after the Compress byte;
// the extension fields must decode as zero values, not as an error.
func TestHelloAckAdmissionExtensionCompat(t *testing.T) {
	enc, err := EncodeRecord(nil, telemetry.Record{WireSize: 29,
		Data: &Hello{Source: 1, Seq: 2, Version: WireV4, Term: 3, Compress: true}})
	if err != nil {
		t.Fatal(err)
	}
	// Zero Class + empty Tenant encode as exactly two trailing bytes;
	// stripping them reproduces the pre-admission encoding.
	rec, _, err := DecodeRecord(enc[:len(enc)-2])
	if err != nil {
		t.Fatal(err)
	}
	h := rec.Data.(*Hello)
	if h.Class != 0 || h.Tenant != "" || h.Term != 3 || !h.Compress {
		t.Fatalf("legacy hello decoded as %+v", h)
	}

	enc, err = EncodeRecord(nil, telemetry.Record{WireSize: 29,
		Data: &Ack{Source: 1, Seq: 2, Version: WireV4, Term: 3, Compress: true}})
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err = DecodeRecord(enc[:len(enc)-2])
	if err != nil {
		t.Fatal(err)
	}
	a := rec.Data.(*Ack)
	if a.ThrottleMicros != 0 || a.Replay || a.Term != 3 || !a.Compress {
		t.Fatalf("legacy ack decoded as %+v", a)
	}
}

func TestReplicationRecordsRoundTrip(t *testing.T) {
	hello := &ReplHello{LastID: 12, LogWM: 9_000_000, Version: CurrentWireVersion}
	got := roundTrip(t, telemetry.Record{WireSize: 33, Data: hello})
	if !reflect.DeepEqual(got.Data, hello) {
		t.Fatalf("repl hello = %+v", got.Data)
	}
	// A hello from a build without the version field ends one byte early
	// and decodes as version 0.
	enc, err := EncodeRecord(nil, telemetry.Record{WireSize: 33, Data: hello})
	if err != nil {
		t.Fatal(err)
	}
	old, _, err := DecodeRecord(enc[:len(enc)-1])
	if h, ok := old.Data.(*ReplHello); err != nil || !ok || h.Version != 0 || h.LastID != 12 || h.LogWM != 9_000_000 {
		t.Fatalf("old-shaped repl hello = %+v, err %v", old.Data, err)
	}
	snap := &ReplSnapshot{ID: 8, BaseID: 7, Seq: 40, Term: 2, Delta: true, Data: []byte{1, 2, 3, 4}}
	got = roundTrip(t, telemetry.Record{WireSize: 40 + len(snap.Data), Data: snap})
	if !reflect.DeepEqual(got.Data, snap) {
		t.Fatalf("repl snapshot = %+v", got.Data)
	}
	ack := &ReplAck{ID: 8, Seq: 40}
	got = roundTrip(t, telemetry.Record{WireSize: 33, Data: ack})
	if !reflect.DeepEqual(got.Data, ack) {
		t.Fatalf("repl ack = %+v", got.Data)
	}
}
