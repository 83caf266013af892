package wire

import (
	"bytes"
	"fmt"
	"testing"

	"jarvis/internal/telemetry"
)

// epochScaleFrame builds one columnar frame at evaluation scale: the
// ~38k-probe drain a recovering SP re-applies per replayed epoch.
func epochScaleFrame(tb testing.TB) []byte {
	tb.Helper()
	var batch telemetry.Batch
	for i := 0; i < 38000; i++ {
		p := &telemetry.PingProbe{
			Timestamp: int64(i * 26), SrcIP: 0x0A000001, SrcCluster: 0x0A00,
			DstIP: 0x0B000000 + uint32(i%20000), DstCluster: 0x0B00,
			RTTMicros: 400 + uint32(i%97),
		}
		if i%7 == 0 {
			p.ErrCode = 1
		}
		batch = append(batch, telemetry.NewProbeRecord(p))
	}
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.WriteFrame(Frame{StreamID: 0, Source: 1, Records: batch}); err != nil {
		tb.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestWarmDecodeAllocs is the tier-1 regression guard for the zero-alloc
// decode path: a warm reader materializing a 38k-record columnar frame
// into rows (ReadRows) must allocate O(sections), not O(records). The v1 record-at-a-time
// decoder allocated ~38k times on this input; the bound fails loudly on
// any regression back toward per-record allocation.
func TestWarmDecodeAllocs(t *testing.T) {
	data := epochScaleFrame(t)
	fr := NewFrameReader(bytes.NewReader(data))
	// Warm up: grow the frame buffer, scratch columns and intern cache.
	for i := 0; i < 3; i++ {
		fr.Reset(bytes.NewReader(data))
		if _, err := fr.ReadRows(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(20, func() {
		fr.Reset(bytes.NewReader(data))
		if f, err := fr.ReadRows(); err != nil || len(f.Records) != 38000 {
			t.Fatalf("decoded %d records, %v", len(f.Records), err)
		}
	})
	// Tolerated: the per-decode payload arena, the records slice, the
	// batch and section headers — nothing proportional to the 38k
	// records.
	if avg > 16 {
		t.Fatalf("warm columnar decode allocates %.1f times for a 38k-record frame (want ≤ 16)", avg)
	}

	// Log lines: 5 000 strings no earlier frame carried, decoded as the
	// receiver decodes them (SoA, pooled arenas). They slice one copy of
	// the frame's string table, so the frame costs that copy plus the
	// section and batch headers — not a string, a hash and a cache entry
	// per line.
	t.Run("log lines", func(t *testing.T) {
		frames := make([][]byte, 8)
		for i := range frames {
			frames[i] = uniqueLinesFrame(t, i, 5000, nil)
		}
		fr := NewFrameReader(bytes.NewReader(nil))
		fr.EnableArenaPooling()
		next := 0
		decode := func() {
			fr.Reset(bytes.NewReader(frames[next%len(frames)]))
			next++
			f, err := fr.ReadFrame()
			if err != nil || f.Cols.Records() != 5000 {
				t.Fatalf("decoded %v, %v", f.Cols, err)
			}
			fr.RecycleArenas()
		}
		decode()
		if avg := testing.AllocsPerRun(len(frames)-1, decode); avg > 8 {
			t.Fatalf("warm SoA decode allocates %.1f times for a frame of 5000 unique lines (want ≤ 8)", avg)
		}
	})
}

// uniqueLinesFrame builds one columnar frame holding a log section of n
// ~120-byte lines that no other (frame, index) pair repeats, followed by
// the given records (nil for none).
func uniqueLinesFrame(tb testing.TB, frame, n int, tail telemetry.Batch) []byte {
	tb.Helper()
	batch := make(telemetry.Batch, 0, n+len(tail))
	for i := 0; i < n; i++ {
		line := fmt.Sprintf("  Tenant Name=tenant-%03d, Job Running Time=%d, CPU Util=%d.%d, Memory Util=31.0   #%058d",
			i%64, i, frame%100, i%10, frame*n+i)
		batch = append(batch, telemetry.NewLogRecord(int64(frame*n+i), line))
	}
	batch = append(batch, tail...)
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.WriteFrame(Frame{StreamID: 0, Source: 1, Records: batch}); err != nil {
		tb.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkColumnarDecodeEpoch tracks the rate of one epoch-scale
// columnar frame decoded to rows (ReadRows).
func BenchmarkColumnarDecodeEpoch(b *testing.B) {
	data := epochScaleFrame(b)
	fr := NewFrameReader(bytes.NewReader(data))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr.Reset(bytes.NewReader(data))
		if _, err := fr.ReadRows(); err != nil {
			b.Fatal(err)
		}
	}
}
