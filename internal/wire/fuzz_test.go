package wire

import (
	"bytes"
	"io"
	"testing"

	"jarvis/internal/telemetry"
)

// seedRecords returns one record of every encodable payload kind, so the
// fuzz corpora start from valid encodings of each tag.
func seedRecords() []telemetry.Record {
	agg := telemetry.NewAggRow(telemetry.StrKey("t|lat|3"), 2, 41.5)
	q := telemetry.NewQuantileRow(telemetry.NumKey(9), 1, 0, 1000, 8)
	q.Observe(250)
	return []telemetry.Record{
		{Time: 1, WireSize: telemetry.PingProbeWireSize, Data: &telemetry.PingProbe{Timestamp: 1, SrcIP: 2, DstIP: 3, RTTMicros: 99}},
		{Time: 2, WireSize: telemetry.ToRProbeWireSize, Data: &telemetry.ToRProbe{Timestamp: 2, SrcToR: 1, DstToR: 2, RTTMicros: 7}},
		{Time: 3, WireSize: 5, Data: &telemetry.LogLine{Timestamp: 3, Raw: "a=b c"}},
		{Time: 4, WireSize: 20, Data: &telemetry.JobStats{Timestamp: 4, Tenant: "t", StatName: "s", Stat: 1.5, Bucket: -2}},
		{Time: 5, Window: 2, WireSize: agg.AggRowWireSize(), Data: &agg},
		{Time: 6, Window: 1, WireSize: q.WireSize(), Data: q},
		{Time: 7, WireSize: 17, Data: &Watermark{Time: 7}},
		{Time: 8, WireSize: 29, Data: &Hello{Source: 3, Seq: 12, Version: 2, Term: 1, Compress: true, Class: 3, Tenant: "acme"}},
		{Time: 9, WireSize: 29, Data: &Ack{Source: 3, Seq: 11, Version: 2, Term: 1, ThrottleMicros: 250_000, Replay: true}},
		{Time: 10, WireSize: 33, Data: &EpochEnd{Seq: 12, Watermark: 1_000_000}},
		{Time: 11, WireSize: 49, Data: &SnapshotHeader{Seq: 5, Watermark: 9, EmittedWM: 8, Acked: 4}},
		{Time: 12, WireSize: 37, Data: &SourceState{Source: 2, Watermark: 7, AppliedSeq: 6}},
		{Time: 13, WireSize: 34, Data: &LoadFactors{Factors: []float64{1, 0.5}}},
		{Time: 14, WireSize: 29, Data: &ReplayEpoch{Seq: 2, Data: []byte{1, 2, 3}}},
	}
}

// FuzzDecodeRecord checks that DecodeRecord never panics on arbitrary
// bytes, and that every successfully decoded record round-trips: its
// re-encoding decodes to a record with an identical re-encoding.
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range seedRecords() {
		enc, err := EncodeRecord(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeRecord(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		enc, err := EncodeRecord(nil, rec)
		if err != nil {
			t.Fatalf("re-encode of decoded record: %v", err)
		}
		rec2, n2, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("decode of re-encoding: %v", err)
		}
		if n2 != len(enc) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(enc))
		}
		enc2, err := EncodeRecord(nil, rec2)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not stable:\n%x\n%x", enc, enc2)
		}
	})
}

// FuzzDecodeControlHandshake targets the Hello/Ack trailing-extension
// decoders specifically: any byte string that decodes to a handshake
// record must re-encode stably, and the admission extension fields
// (Class/Tenant on Hello, ThrottleMicros/Replay on Ack) must survive a
// second decode unchanged. Seeds cover full extended encodings and the
// truncated prefixes a pre-extension peer would emit.
func FuzzDecodeControlHandshake(f *testing.F) {
	seeds := []telemetry.Record{
		{Time: 1, WireSize: 29, Data: &Hello{Source: 3, Seq: 12}},
		{Time: 1, WireSize: 29, Data: &Hello{Source: 3, Seq: 12, Version: WireV4, Term: 4, Compress: true, Class: 1, Tenant: "best-effort-tenant"}},
		{Time: 1, WireSize: 29, Data: &Hello{Source: 7, Seq: 0, Class: 3, Tenant: "acme"}},
		{Time: 1, WireSize: 29, Data: &Ack{Source: 3, Seq: 11}},
		{Time: 1, WireSize: 29, Data: &Ack{Source: 3, Seq: 11, Version: WireV4, Term: 4, Compress: true, ThrottleMicros: 2_000_000, Replay: true}},
		{Time: 1, WireSize: 29, Data: &Ack{Source: 7, Seq: 5, ThrottleMicros: 1}},
	}
	for _, rec := range seeds {
		enc, err := EncodeRecord(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		// Truncated at every extension boundary: version, term, compress,
		// and the two admission fields — each prefix is a valid encoding
		// some older build emits.
		for cut := 1; cut <= 4 && cut < len(enc); cut++ {
			f.Add(enc[:len(enc)-cut])
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, _, err := DecodeRecord(data)
		if err != nil {
			return
		}
		switch p := rec.Data.(type) {
		case *Hello, *Ack:
			_ = p
		default:
			return
		}
		enc, err := EncodeRecord(nil, rec)
		if err != nil {
			t.Fatalf("re-encode of decoded handshake: %v", err)
		}
		rec2, n2, err := DecodeRecord(enc)
		if err != nil || n2 != len(enc) {
			t.Fatalf("decode of re-encoding: n=%d err=%v", n2, err)
		}
		switch p := rec.Data.(type) {
		case *Hello:
			q, ok := rec2.Data.(*Hello)
			if !ok || *q != *p {
				t.Fatalf("hello extension fields changed: %+v vs %+v", rec2.Data, p)
			}
		case *Ack:
			q, ok := rec2.Data.(*Ack)
			if !ok || *q != *p {
				t.Fatalf("ack extension fields changed: %+v vs %+v", rec2.Data, p)
			}
		}
		enc2, err := EncodeRecord(nil, rec2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("handshake encoding not stable:\n%x\n%x", enc, enc2)
		}
	})
}

// FuzzDecodeEpochTrace targets the EpochEnd trailing trace-context
// extension: any byte string that decodes to an EpochEnd must re-encode
// stably, and when the trace is armed (TraceID nonzero) every extension
// field must survive a second decode unchanged; an untraced EpochEnd
// must re-encode to the 33-byte pre-trace form with a zeroed extension.
// Seeds cover the untraced form, fully traced epochs (including negative
// clock stamps), and truncations at every extension-field boundary — the
// prefixes a mixed-version fleet actually emits.
func FuzzDecodeEpochTrace(f *testing.F) {
	seeds := []telemetry.Record{
		{Time: 1, WireSize: 33, Data: &EpochEnd{Seq: 12, Watermark: 1_000_000}},
		{Time: 1, WireSize: 33, Data: &EpochEnd{Seq: 412, Watermark: 9_000_000,
			TraceID: 3<<40 | 412, StartMicros: 1_722_000_000_000_000,
			GenMicros: 180, PipeMicros: 1_630, EncMicros: 240,
			SentMicros: 1_722_000_000_002_050}},
		{Time: 1, WireSize: 33, Data: &EpochEnd{Seq: 1, Watermark: -5,
			TraceID: 1, StartMicros: -1, SentMicros: -2}},
	}
	for _, rec := range seeds {
		enc, err := EncodeRecord(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		// Truncated at (and inside) every trailing field: each prefix is
		// either a valid pre-trace encoding or a partially applied
		// extension, and none may panic or mis-consume.
		for cut := 1; cut <= 8 && cut < len(enc); cut++ {
			f.Add(enc[:len(enc)-cut])
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, _, err := DecodeRecord(data)
		if err != nil {
			return
		}
		p, ok := rec.Data.(*EpochEnd)
		if !ok {
			return
		}
		enc, err := EncodeRecord(nil, rec)
		if err != nil {
			t.Fatalf("re-encode of decoded EpochEnd: %v", err)
		}
		rec2, n2, err := DecodeRecord(enc)
		if err != nil || n2 != len(enc) {
			t.Fatalf("decode of re-encoding: n=%d err=%v", n2, err)
		}
		q, ok := rec2.Data.(*EpochEnd)
		if !ok {
			t.Fatalf("re-encoding decoded to %T", rec2.Data)
		}
		if p.TraceID != 0 {
			if *q != *p {
				t.Fatalf("trace extension fields changed: %+v vs %+v", q, p)
			}
		} else {
			// Untraced epochs re-encode to the pre-trace form: trailing
			// garbage behind a zero TraceID must not survive the round
			// trip.
			if q.Seq != p.Seq || q.Watermark != p.Watermark || *q != (EpochEnd{Seq: p.Seq, Watermark: p.Watermark}) {
				t.Fatalf("untraced EpochEnd not canonical: %+v", q)
			}
		}
		enc2, err := EncodeRecord(nil, rec2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("EpochEnd encoding not stable:\n%x\n%x", enc, enc2)
		}
	})
}

// FuzzReadFrame checks that the frame reader never panics on arbitrary
// bytes and that successfully decoded frames round-trip through
// WriteFrame/ReadRows.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.WriteFrame(Frame{StreamID: 2, Source: 7, Records: telemetry.Batch(seedRecords())}); err != nil {
		f.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		for {
			frame, err := fr.ReadRows()
			if err != nil {
				if err == io.EOF || err == io.ErrUnexpectedEOF {
					return
				}
				return // corrupt input is fine, panics are not
			}
			var out bytes.Buffer
			w := NewFrameWriter(&out)
			if err := w.WriteFrame(frame); err != nil {
				t.Fatalf("re-encode of decoded frame: %v", err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			got, err := NewFrameReader(bytes.NewReader(out.Bytes())).ReadRows()
			if err != nil {
				t.Fatalf("decode of re-encoded frame: %v", err)
			}
			if got.StreamID != frame.StreamID || got.Source != frame.Source || len(got.Records) != len(frame.Records) {
				t.Fatalf("frame round-trip mismatch: %+v vs %+v", got, frame)
			}
		}
	})
}

// FuzzDecodeCompressedFrame checks that the flate-compressed columnar
// frame path never panics on arbitrary byte streams and that decoded
// compressed frames round-trip through a compressing writer. (The third
// leg, a differential against the DecompressFrames downgrade rewriter,
// went with that rewriter in PR 13.)
func FuzzDecodeCompressedFrame(f *testing.F) {
	seed := func(batch telemetry.Batch) {
		var buf bytes.Buffer
		fw := NewFrameWriter(&buf)
		fw.SetCompression(true)
		if err := fw.WriteFrame(Frame{StreamID: 1, Source: 3, Records: batch}); err != nil {
			f.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, rec := range seedRecords() {
		seed(telemetry.Batch{rec})
	}
	seed(telemetry.Batch(seedRecords()))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 16, 0, 0, 0, 1, 0, 0, 0, 3, 0xFF, 0xFF, 0xFF, 0xFD, 4, 0, 0, 0})
	f.Add(inflateBombFrame)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		for {
			frame, err := fr.ReadRows()
			if err != nil {
				return // corrupt input is fine, panics are not
			}

			// Round-trip through a compressing writer.
			var out bytes.Buffer
			w := NewFrameWriter(&out)
			w.SetCompression(true)
			if err := w.WriteFrame(frame); err != nil {
				t.Fatalf("re-encode of decoded frame: %v", err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			got, err := NewFrameReader(bytes.NewReader(out.Bytes())).ReadRows()
			if err != nil {
				t.Fatalf("decode of compressed re-encoding: %v", err)
			}
			if got.StreamID != frame.StreamID || got.Source != frame.Source {
				t.Fatalf("frame header round-trip mismatch: %+v vs %+v", got, frame)
			}
			if !bytes.Equal(canonical(t, got.Records), canonical(t, frame.Records)) {
				t.Fatal("compressed round-trip changed the records")
			}
		}
	})
}

// addColumnarSeeds seeds a payload fuzzer with one payload per section
// type plus a mixed one, as the encoder produces them (the payload is
// the frame body after the 12-byte header), and the empty payload.
func addColumnarSeeds(f *testing.F) {
	seed := func(batch telemetry.Batch) {
		var buf bytes.Buffer
		fw := NewFrameWriter(&buf)
		if err := fw.WriteFrame(Frame{StreamID: 1, Records: batch}); err != nil {
			f.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes()[16:]) // strip 4B length + 12B frame header
	}
	for _, rec := range seedRecords() {
		seed(telemetry.Batch{rec})
	}
	seed(telemetry.Batch(seedRecords()))
	f.Add([]byte{})
}

// FuzzDecodeColumnarBatch checks that the columnar decoder never panics
// on arbitrary payloads and that every successfully decoded batch
// round-trips: re-encoding its rows columnar and reading them back
// yields records with identical row encodings.
func FuzzDecodeColumnarBatch(f *testing.F) {
	addColumnarSeeds(f)
	f.Add([]byte{0, 0, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		var cb ColumnarBatch
		if err := NewColumnarDecoder().DecodeColumnar(data, &cb); err != nil {
			return // corrupt input is fine, panics are not
		}
		var out telemetry.Batch
		cb.AppendRows(&out)
		if len(out) != cb.Records() {
			t.Fatalf("%d live rows materialized to %d records", cb.Records(), len(out))
		}
		var buf bytes.Buffer
		fw := NewFrameWriter(&buf)
		if err := fw.WriteFrame(Frame{StreamID: 1, Records: out}); err != nil {
			t.Fatalf("re-encode of decoded batch: %v", err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := NewFrameReader(bytes.NewReader(buf.Bytes())).ReadRows()
		if err != nil {
			t.Fatalf("decode of re-encoded batch: %v", err)
		}
		if first, second := canonical(t, out), canonical(t, got.Records); !bytes.Equal(first, second) {
			t.Fatalf("columnar round-trip not stable:\n%x\n%x", first, second)
		}
	})
}

// FuzzEncodeColsVsRows differentially fuzzes the two section encoders:
// for any payload DecodeColumnar accepts, the column-direct encoder
// (encodeCols) and the row encoder (encode, over AppendRows' records)
// must write the same bytes — packing modes, block widths, float planes
// and string table order included. encode cuts a section wherever the
// record type changes and only there, while encodeCols keeps the cuts
// of the batch it is given, so the byte check runs on the batch in
// encode's cuts (its output decoded again, what every encoder-written
// frame already is); the payload's own batch, whatever its cuts, must
// encode column-direct to bytes that decode back to its rows.
func FuzzEncodeColsVsRows(f *testing.F) {
	addColumnarSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var cb ColumnarBatch
		if err := NewColumnarDecoder().DecodeColumnar(data, &cb); err != nil {
			return
		}
		var rows telemetry.Batch
		cb.AppendRows(&rows)
		var enc columnarEncoder
		fromRows, err := enc.encode(nil, rows)
		if err != nil {
			t.Fatalf("decoded rows do not re-encode: %v", err)
		}
		var cut ColumnarBatch
		if err := NewColumnarDecoder().DecodeColumnar(fromRows, &cut); err != nil {
			t.Fatalf("row encoding does not decode: %v", err)
		}
		fromCols, err := enc.encodeCols(nil, &cut)
		if err != nil {
			t.Fatalf("decoded batch does not re-encode: %v", err)
		}
		if !bytes.Equal(fromCols, fromRows) {
			t.Fatalf("encoders disagree:\ncolumns %x\nrows    %x", fromCols, fromRows)
		}

		own, err := enc.encodeCols(nil, &cb)
		if err != nil {
			t.Fatalf("payload batch does not re-encode: %v", err)
		}
		var back ColumnarBatch
		if err := NewColumnarDecoder().DecodeColumnar(own, &back); err != nil {
			t.Fatalf("column-direct encoding does not decode: %v", err)
		}
		var got telemetry.Batch
		back.AppendRows(&got)
		if len(got) != len(rows) {
			t.Fatalf("column-direct round trip: %d records, want %d", len(got), len(rows))
		}
		for i := range rows {
			if got[i].WireSize != rows[i].WireSize {
				t.Fatalf("record %d wire size %d, want %d", i, got[i].WireSize, rows[i].WireSize)
			}
		}
		if !bytes.Equal(canonical(t, got), canonical(t, rows)) {
			t.Fatal("column-direct round trip changed the records")
		}
	})
}
