package wire_test

import (
	"bytes"
	"io"
	"testing"

	"jarvis/internal/benchcase"
	"jarvis/internal/wire"
)

// TestWireBytesPerRecordBudget is the tier-1 size guard of the wire
// format: the canonical micro-benchmark epochs, framed as the shipper
// frames them, must stay under a pinned bytes-per-record ceiling both
// before and after the per-frame flate wrapper. A codec change that
// bloats a section fails here, by name, rather than only against the
// repository benchmark's 2 % wire_bytes_per_record bound. Ceilings sit
// ~5 % above the sizes measured when the packed columns (v3) and the
// float planes (v4) landed (in the comments, uncompressed / flate, the
// unpacked v2 layout's beside them).
func TestWireBytesPerRecordBudget(t *testing.T) {
	ping, _, err := benchcase.ShippedEpoch()
	if err != nil {
		t.Fatal(err)
	}
	pipe, cb, err := benchcase.PipelineEpochColumnar()
	if err != nil {
		t.Fatal(err)
	}
	pipe.RunEpochColumnar(cb)
	var agg []wire.Frame // the epoch's partial aggregates, as they merge into the SP
	for _, rows := range pipe.DrainState() {
		agg = append(agg, wire.Frame{Records: rows})
	}
	_, _, spans, err := benchcase.SpanIngest()
	if err != nil {
		t.Fatal(err)
	}
	logs, err := benchcase.LogShippedEpochs()
	if err != nil {
		t.Fatal(err)
	}
	var logFrames []wire.Frame
	fr := wire.NewFrameReader(bytes.NewReader(logs[0]))
	for {
		f, err := fr.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if f.Cols != nil && f.Cols.Records() > 1 { // the data frames, not the watermark
			logFrames = append(logFrames, f)
		}
	}

	cases := []struct {
		name       string
		frames     []wire.Frame
		raw, flate float64 // ceilings, bytes per record
	}{
		// 38 462 raw probes: 2.13 / 1.70 B (v2: 27.00 / 4.84).
		{"raw ping", []wire.Frame{{Cols: &ping.Drains[0]}}, 2.25, 1.78},
		// 19 447 partial aggregates: 24.33 / 4.87 B (v3: 24.33 / 6.40, v2:
		// 37.00 / 8.58) — integral sums: the zero mantissa planes vanish.
		{"agg partials", agg, 25.5, 5.2},
		// 47 620 spans: 9.53 / 8.12 B (v3: 9.53 / 8.86, v2: 14.02 / 8.76) —
		// lognormal durations: six of eight planes are noise flate stores.
		{"spans", []wire.Frame{{Cols: spans}}, 10, 8.4},
		// 4 063 log lines, one 100 ms LogAnalytics epoch at load factor
		// 3/16: 123.70 / 14.74 B (v2: 127.97 / 17.14).
		{"log lines", logFrames, 129, 15.5},
	}
	for _, tc := range cases {
		records := 0
		var size [2]int
		for _, f := range tc.frames {
			if f.Cols != nil {
				records += f.Cols.Records()
			} else {
				records += len(f.Records)
			}
			for i, compress := range []bool{false, true} {
				var buf bytes.Buffer
				fw := wire.NewFrameWriter(&buf)
				fw.SetCompression(compress)
				if err := fw.WriteFrame(f); err != nil {
					t.Fatal(err)
				}
				if err := fw.Flush(); err != nil {
					t.Fatal(err)
				}
				size[i] += buf.Len()
			}
		}
		if records == 0 {
			t.Fatalf("%s: canonical epoch is empty", tc.name)
		}
		raw, flate := float64(size[0])/float64(records), float64(size[1])/float64(records)
		t.Logf("%-12s %6d records  %7.2f B/record uncompressed  %6.2f B/record flate", tc.name, records, raw, flate)
		if raw > tc.raw {
			t.Errorf("%s: %.2f B/record uncompressed, budget %.2f", tc.name, raw, tc.raw)
		}
		if flate > tc.flate {
			t.Errorf("%s: %.2f B/record after flate, budget %.2f", tc.name, flate, tc.flate)
		}
	}
}
