package wire

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"unsafe"

	"jarvis/internal/telemetry"
)

// mixedBatch builds a batch covering every columnar section type plus a
// raw-fallback payload, with runs long enough to exercise delta packing.
func mixedBatch() telemetry.Batch {
	var b telemetry.Batch
	for i := 0; i < 100; i++ {
		p := &telemetry.PingProbe{
			Timestamp: int64(1000 + i*26), SrcIP: 0x0A000001, SrcCluster: 0x0A00,
			DstIP: 0x0B000000 + uint32(i), DstCluster: 0x0B00, RTTMicros: 400 + uint32(i%7),
		}
		if i%9 == 0 {
			p.ErrCode = 2
		}
		rec := telemetry.NewProbeRecord(p)
		rec.Window = rec.Time / 10_000_000
		b = append(b, rec)
	}
	for i := 0; i < 40; i++ {
		b = append(b, telemetry.Record{
			Time: int64(2000 + i), Window: 1, WireSize: telemetry.ToRProbeWireSize,
			Data: &telemetry.ToRProbe{Timestamp: int64(2000 + i), SrcToR: uint32(i % 4), DstToR: uint32(i % 5), RTTMicros: 300},
		})
	}
	for i := 0; i < 30; i++ {
		raw := "tenant name=alpha, cpu util=42.0"
		if i%3 == 0 {
			raw = "tenant name=beta, memory util=17.5"
		}
		b = append(b, telemetry.NewLogRecord(int64(3000+i*13), raw))
	}
	tenants := []string{"alpha", "beta", "gamma"}
	stats := []string{"cpu util", "memory util"}
	for i := 0; i < 30; i++ {
		j := &telemetry.JobStats{
			Timestamp: int64(4000 + i), Tenant: tenants[i%3], StatName: stats[i%2],
			Stat: float64(i) * 1.5, Bucket: i%12 - 1,
		}
		b = append(b, telemetry.Record{Time: int64(4000 + i), Window: 2, WireSize: j.JobStatsWireSize(), Data: j})
	}
	for i := 0; i < 50; i++ {
		key := telemetry.NumKey(uint64(i) << 32)
		if i%4 == 0 {
			key = telemetry.StrKey(tenants[i%3] + "|cpu util|3")
		}
		row := telemetry.NewAggRow(key, 3, float64(i))
		row.Observe(float64(i * 2))
		b = append(b, telemetry.NewAggRecord(row, 40_000_000))
	}
	for i := 0; i < 10; i++ {
		q := telemetry.NewQuantileRow(telemetry.NumKey(uint64(i)), 4, 0, 1000, 4+i%3)
		q.Observe(float64(i * 100))
		q.Observe(float64(i * 150))
		b = append(b, telemetry.Record{Time: 50_000_000, Window: 4, WireSize: q.WireSize(), Data: q})
	}
	b = append(b, telemetry.Record{Time: 60_000_000, WireSize: 17, Data: &Watermark{Time: 60_000_000}})
	// Raw fallback: a control record inside a data frame.
	b = append(b, telemetry.Record{Time: 61_000_000, WireSize: 33, Data: &EpochEnd{Seq: 9, Watermark: 60_000_000}})
	return b
}

// canonical renders records as their concatenated v1 encodings, the
// equality notion used across the round-trip tests.
func canonical(t *testing.T, b telemetry.Batch) []byte {
	t.Helper()
	var out []byte
	var err error
	for _, rec := range b {
		out, err = EncodeRecord(out, rec)
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestColumnarRoundTrip(t *testing.T) {
	batch := mixedBatch()
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.WriteFrame(Frame{StreamID: 3, Source: 7, Records: batch}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(bytes.NewReader(buf.Bytes()))
	got, err := fr.ReadRows()
	if err != nil {
		t.Fatal(err)
	}
	if marker := binary.BigEndian.Uint32(fr.RawFrame()[8:]); marker != ColumnarMarker {
		t.Fatalf("frame carries marker %#x, not the columnar one", marker)
	}
	if got.StreamID != 3 || got.Source != 7 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Records) != len(batch) {
		t.Fatalf("decoded %d records, want %d", len(got.Records), len(batch))
	}
	if !bytes.Equal(canonical(t, got.Records), canonical(t, batch)) {
		t.Fatal("columnar round-trip changed record content")
	}
	for i := range got.Records {
		if got.Records[i].WireSize != batch[i].WireSize {
			t.Fatalf("record %d wire size %d, want %d", i, got.Records[i].WireSize, batch[i].WireSize)
		}
	}
}

// TestColumnarInternSharing proves repeated strings across frames on one
// reader decode to a single shared string value.
func TestColumnarInternSharing(t *testing.T) {
	rec := func() telemetry.Record {
		row := telemetry.NewAggRow(telemetry.StrKey("tenant-007|cpu util|3"), 1, 5)
		return telemetry.NewAggRecord(row, 10)
	}
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	for i := 0; i < 2; i++ {
		if err := fw.WriteFrame(Frame{StreamID: 1, Records: telemetry.Batch{rec()}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(bytes.NewReader(buf.Bytes()))
	f1, err := fr.ReadRows()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := fr.ReadRows()
	if err != nil {
		t.Fatal(err)
	}
	s1 := f1.Records[0].Data.(*telemetry.AggRow).Key.Str
	s2 := f2.Records[0].Data.(*telemetry.AggRow).Key.Str
	if s1 != "tenant-007|cpu util|3" {
		t.Fatalf("decoded key %q", s1)
	}
	// Same backing storage, not merely equal content: the intern cache
	// must hand back the identical string header.
	if len(s1) == 0 || unsafe.StringData(s1) != unsafe.StringData(s2) {
		t.Fatal("repeated key across frames decoded to distinct allocations")
	}
}

// TestCanonSurvivesUniqueLines is the eviction guard of the role-based
// string table: 200 000 unique log lines, interleaved frame by frame with
// JobStats sections, never enter the canonicalization cache — it holds
// exactly the distinct key strings, and a tenant decoded after the flood
// is the very string handle decoded before it (at the old eager
// interning the lines filled the 65 536-entry cache and reset it, keys
// included, every few frames). It also pins where the strings live: a
// key column never points into the frame's line storage.
func TestCanonSurvivesUniqueLines(t *testing.T) {
	tenants := []string{"tenant-a", "tenant-b", "tenant-c", "tenant-d", "tenant-e"}
	stats := []string{"cpu util", "memory util", "job running time"}
	var jobs telemetry.Batch
	for i := 0; i < 60; i++ {
		j := &telemetry.JobStats{Timestamp: int64(i), Tenant: tenants[i%len(tenants)], StatName: stats[i%len(stats)], Stat: float64(i)}
		jobs = append(jobs, telemetry.Record{Time: int64(i), WireSize: j.JobStatsWireSize(), Data: j})
	}
	fr := NewFrameReader(bytes.NewReader(nil))
	fr.EnableArenaPooling()
	dec := fr.dec
	var first string
	const frames, perFrame = 40, 5000
	for k := 0; k < frames; k++ {
		fr.Reset(bytes.NewReader(uniqueLinesFrame(t, k, perFrame, jobs)))
		f, err := fr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Cols.Secs) != 2 || f.Cols.Secs[0].Log == nil || f.Cols.Secs[1].Job == nil {
			t.Fatalf("frame %d decoded to %d sections", k, len(f.Cols.Secs))
		}
		raw, job := f.Cols.Secs[0].Log.Raw, f.Cols.Secs[1].Job
		// The lines slice one backing string, in table order.
		lo := uintptr(unsafe.Pointer(unsafe.StringData(raw[0])))
		last := raw[len(raw)-1]
		hi := uintptr(unsafe.Pointer(unsafe.StringData(last))) + uintptr(len(last))
		if span := hi - lo; span > 2*perFrame*130 {
			t.Fatalf("frame %d: %d lines span %d bytes — not one backing string", k, perFrame, span)
		}
		for i := range job.Tenant {
			for _, s := range []string{job.Tenant[i], job.StatName[i]} {
				if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); p >= lo && p < hi {
					t.Fatalf("frame %d: key %q points into the frame's line storage", k, s)
				}
			}
		}
		if k == 0 {
			first = job.Tenant[0]
		} else if unsafe.StringData(job.Tenant[0]) != unsafe.StringData(first) {
			t.Fatalf("frame %d: tenant %q decoded to a new string — the canon cache was flushed", k, first)
		}
		fr.RecycleArenas()
	}
	// Recycled arenas may keep key strings (the cache owns those anyway)
	// but no log line: one stale entry would pin its frame's whole copy.
	for _, arena := range dec.pool.str {
		for _, s := range arena[:cap(arena)] {
			if len(s) > len("job running time") {
				t.Fatalf("a free string arena still holds the log line %q", s)
			}
		}
	}
	if got, want := len(dec.canon), len(tenants)+len(stats); got != want {
		t.Fatalf("canon cache holds %d strings after %d unique lines, want the %d key strings", got, frames*perFrame, want)
	}
}

// writeColumnar returns the frame bytes a columnar writer produces for f.
func writeColumnar(t testing.TB, f Frame, compress bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	fw.SetCompression(compress)
	if err := fw.WriteFrame(f); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSectionCountGuard pins the section count guard from both sides.
// Packed constant columns legitimately cost a fraction of a bit per row,
// so the densest frames the encoder produces — far below any per-record
// byte floor — must decode; and a forged count must be refused before it
// sizes an arena, whether it exceeds what the remaining bytes could pack
// or the frame's value budget.
func TestSectionCountGuard(t *testing.T) {
	var probes, jobs telemetry.Batch
	for i := 0; i < 50_000; i++ {
		probes = append(probes, telemetry.NewProbeRecord(&telemetry.PingProbe{
			Timestamp: int64(i * 26), SrcIP: 0x0A000001, SrcCluster: 0x0A00,
			DstIP: 0x0B000000 + uint32(i), DstCluster: 0x0B00, RTTMicros: 400,
		}))
	}
	for i := 0; i < 200; i++ {
		j := &telemetry.JobStats{Timestamp: int64(i), Tenant: "t", StatName: "s", Stat: 1, Bucket: 0}
		jobs = append(jobs, telemetry.Record{Time: int64(i), WireSize: j.JobStatsWireSize(), Data: j})
	}
	for _, batch := range []telemetry.Batch{probes, jobs} {
		data := writeColumnar(t, Frame{StreamID: 2, Records: batch}, false)
		got, err := NewFrameReader(bytes.NewReader(data)).ReadRows()
		if err != nil {
			t.Fatalf("dense %d-record frame of %d bytes rejected: %v", len(batch), len(data), err)
		}
		if !bytes.Equal(canonical(t, got.Records), canonical(t, batch)) {
			t.Fatal("dense frame round-trip changed content")
		}
	}
	if perRow := float64(len(writeColumnar(t, Frame{Records: probes}, false))) / float64(len(probes)); perRow > 0.2 {
		t.Fatalf("constant-stride probe section costs %.2f B/row", perRow)
	}

	// Forged headers: a ping section claiming n rows over a body of
	// zeros (mode plain, min 0, width 0 — valid constant blocks as far as
	// they go).
	forged := func(n uint64, body int) []byte {
		p := []byte{0, 0, 0, 0, TagPingProbe}
		p = binary.AppendUvarint(p, n)
		p = append(p, make([]byte, body)...)
		binary.BigEndian.PutUint32(p, uint32(len(p)))
		return append(p, 0) // empty string table
	}
	// And a job section whose integer columns are all there but whose
	// float column is one byte short of its eight planes.
	const shortRows = 100_000
	short := binary.AppendUvarint([]byte{0, 0, 0, 0, TagJobStats}, shortRows)
	for c := 0; c < sectionIntCols(TagJobStats); c++ {
		short = appendPacked(short, make([]int64, shortRows))
	}
	short = append(short, make([]byte, 8*shortRows-1)...)
	binary.BigEndian.PutUint32(short, uint32(len(short)))
	short = append(short, 0)
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"count beyond 64 per remaining byte", forged(1<<40, 64)},
		{"count beyond the frame value budget", forged(maxFrameValues/9+1, 1<<20)},
		{"count the bytes could pack but do not", forged(100_000, 100_000/64*2)},
		{"float column a byte short of its planes", short},
	} {
		payload := tc.payload
		var cb ColumnarBatch
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := NewColumnarDecoder().DecodeColumnar(payload, &cb)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: decoded", tc.name)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 64<<20 {
			t.Fatalf("%s: refusing a %d-byte payload allocated %d MiB", tc.name, len(payload), grown>>20)
		}
	}
}

// TestColsEncodeMatchesRows pins the two section encoders to each other:
// a SoA batch — dense sections and sections narrowed by a selection
// vector — must encode to exactly the bytes its materialized rows encode
// to, packing modes, block widths and float planes included, compressed
// or not.
func TestColsEncodeMatchesRows(t *testing.T) {
	var cb ColumnarBatch
	payload := writeColumnar(t, Frame{StreamID: 1, Records: mixedBatch()}, false)[16:]
	if err := NewColumnarDecoder().DecodeColumnar(payload, &cb); err != nil {
		t.Fatal(err)
	}
	check := func(name string) {
		t.Helper()
		var rows telemetry.Batch
		cb.AppendRows(&rows)
		for _, compress := range []bool{false, true} {
			fromCols := writeColumnar(t, Frame{StreamID: 1, Cols: &cb}, compress)
			fromRows := writeColumnar(t, Frame{StreamID: 1, Records: rows}, compress)
			if !bytes.Equal(fromCols, fromRows) {
				t.Fatalf("%s (compress %v): column-direct encoding (%d bytes) differs from the row encoding (%d bytes)", name, compress, len(fromCols), len(fromRows))
			}
		}
	}
	check("dense")
	for si := range cb.Secs {
		s := &cb.Secs[si]
		if s.Rows != nil {
			continue
		}
		for i := 0; i < s.N(); i++ {
			if i%3 != 1 {
				s.Sel = append(s.Sel, int32(i))
			}
		}
	}
	check("selected")
}

func TestColumnarEmptyBatch(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.WriteFrame(Frame{StreamID: 5, Records: nil}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewFrameReader(bytes.NewReader(buf.Bytes())).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if got.Cols == nil || got.Cols.Records() != 0 || got.StreamID != 5 {
		t.Fatalf("empty columnar frame decoded to %+v", got)
	}
	if _, err := NewFrameReader(bytes.NewReader(buf.Bytes())).ReadFrame(); err != nil {
		t.Fatal(err)
	}
}

// TestColumnarControlFramesStayV1 checks that the writer encodes
// control-stream frames record-at-a-time, so handshakes remain readable
// pre-negotiation.
func TestColumnarControlFramesStayV1(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	rec := telemetry.Record{WireSize: 29, Data: &Hello{Source: 1, Seq: 2, Version: WireV4}}
	if err := fw.WriteFrame(Frame{StreamID: ControlStreamID, Records: telemetry.Batch{rec}}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(bytes.NewReader(buf.Bytes()))
	got, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if count := binary.BigEndian.Uint32(fr.RawFrame()[8:]); count != 1 {
		t.Fatalf("control frame carries count/marker %#x, want a 1-record row frame", count)
	}
	h, ok := got.Records[0].Data.(*Hello)
	if !ok || h.Version != WireV4 {
		t.Fatalf("hello round-trip: %+v", got.Records[0].Data)
	}
	// A row frame has no columnar form: handing it Cols is a caller bug,
	// reported instead of silently materialized.
	if err := fw.WriteFrame(Frame{StreamID: ControlStreamID, Cols: &ColumnarBatch{}}); err == nil {
		t.Fatal("control frame accepted a columnar batch")
	}
}

// TestLegacyHelloDecodes checks truncated Hello payloads from older
// builds still decode: a pre-versioning 12-byte Hello reads as Version 0
// (= v1 peer), a pre-HA Hello (version but no term) reads as Term 0,
// and a pre-compression Hello reads as Compress false.
func TestLegacyHelloDecodes(t *testing.T) {
	rec := telemetry.Record{WireSize: 29, Data: &Hello{Source: 9, Seq: 4, Version: WireV4, Term: 3, Compress: true, Class: 2, Tenant: "t"}}
	enc, err := EncodeRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		strip       int // trailing 1-byte fields removed
		wantVersion uint32
		wantTerm    uint64
		wantComp    bool
		wantClass   byte
	}{
		// The one-char tenant encodes as 2 bytes (uvarint len + byte),
		// the class as 1; every earlier trailing field is 1 byte here.
		{"current", 0, WireV4, 3, true, 2},
		{"pre-admission", 3, WireV4, 3, true, 0},
		{"pre-compression", 4, WireV4, 3, false, 0},
		{"pre-ha", 5, WireV4, 0, false, 0},
		{"pre-versioning", 6, 0, 0, false, 0},
	} {
		legacy := enc[:len(enc)-tc.strip] // each trailing field is 1 byte here
		got, n, err := DecodeRecord(legacy)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n != len(legacy) {
			t.Fatalf("%s: consumed %d of %d", tc.name, n, len(legacy))
		}
		h := got.Data.(*Hello)
		if h.Source != 9 || h.Seq != 4 || h.Version != tc.wantVersion || h.Term != tc.wantTerm || h.Compress != tc.wantComp || h.Class != tc.wantClass {
			t.Fatalf("%s: decoded as %+v", tc.name, h)
		}
		wantTenant := "t"
		if tc.strip > 0 {
			wantTenant = ""
		}
		if h.Tenant != wantTenant {
			t.Fatalf("%s: tenant = %q", tc.name, h.Tenant)
		}
	}
}

// TestColumnarBytesMatchRows: the kind-hoisted byte sums (TotalBytes,
// SelBytes, RowBytes) weigh every section kind exactly as the
// materialized records' WireSize does, dense and under a selection.
func TestColumnarBytesMatchRows(t *testing.T) {
	var cb ColumnarBatch
	payload := writeColumnar(t, Frame{StreamID: 1, Records: mixedBatch()}, false)[16:]
	if err := NewColumnarDecoder().DecodeColumnar(payload, &cb); err != nil {
		t.Fatal(err)
	}
	check := func(name string) {
		t.Helper()
		var rows telemetry.Batch
		cb.AppendRows(&rows)
		if got, want := cb.TotalBytes(), rows.TotalBytes(); got != want {
			t.Fatalf("%s: columns weigh %d bytes, their rows %d", name, got, want)
		}
		for si := range cb.Secs {
			s := &cb.Secs[si]
			if s.Rows != nil {
				continue
			}
			var sec telemetry.Batch
			s.AppendRows(&sec)
			var live []int32
			s.Live(func(i int) { live = append(live, int32(i)) })
			for k, i := range live {
				if got := s.RowBytes(int(i)); got != sec[k].WireSize {
					t.Fatalf("%s: section %d row %d weighs %d, its record %d", name, si, i, got, sec[k].WireSize)
				}
			}
			if got, want := s.SelBytes(live), sec.TotalBytes(); got != want {
				t.Fatalf("%s: section %d: SelBytes %d, rows %d", name, si, got, want)
			}
		}
	}
	check("dense")
	for si := range cb.Secs {
		s := &cb.Secs[si]
		if s.Rows != nil {
			continue
		}
		if s.SelBytes(nil) != 0 || s.SelBytes([]int32{}) != 0 {
			t.Fatalf("section %d: an empty selection weighs something", si)
		}
		for i := 0; i < s.N(); i++ {
			if i%3 != 1 {
				s.Sel = append(s.Sel, int32(i))
			}
		}
	}
	check("selected")
}
