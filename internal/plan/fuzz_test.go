package plan

import (
	"bytes"
	"testing"

	"jarvis/internal/operator"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
)

// fuzzToRTable is a small deterministic IP→ToR table whose coverage
// guarantees the fuzzer can reach every probe outcome: source hit/miss
// and destination hit/miss.
func fuzzToRTable() *telemetry.ToRTable {
	ips := make([]uint32, 0, 64)
	for i := uint32(0); i < 64; i++ {
		ips = append(ips, 0x0A000000+i, 0x0B000000+i)
	}
	return telemetry.NewToRTable(ips, 8)
}

// FuzzColumnarJoinDifferential differentially fuzzes the T2TProbe join
// pair: for any decodable columnar payload, probing the SoA sections
// through the fused kernel pair must produce exactly the records the
// row-path probes produce (identical v1 encodings), including the
// drop-at-the-second-join semantics for destination misses.
func FuzzColumnarJoinDifferential(f *testing.F) {
	seed := func(batch telemetry.Batch) {
		var buf bytes.Buffer
		fw := wire.NewFrameWriter(&buf)
		if err := fw.WriteFrame(wire.Frame{StreamID: 1, Records: batch}); err != nil {
			f.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes()[16:]) // strip 4B length + 12B frame header
	}
	// Seeds cover all four probe outcomes plus a non-ping section the
	// kernels must decline.
	var probes telemetry.Batch
	for i, pair := range [][2]uint32{
		{0x0A000000, 0x0B000001}, // src hit, dst hit
		{0x0A000001, 0x0C000000}, // src hit, dst miss
		{0x0C000000, 0x0B000000}, // src miss, dst hit
		{0x0C000001, 0x0C000002}, // src miss, dst miss
	} {
		probes = append(probes, telemetry.Record{
			Time: int64(i), WireSize: telemetry.PingProbeWireSize,
			Data: &telemetry.PingProbe{Timestamp: int64(i), SrcIP: pair[0], DstIP: pair[1], RTTMicros: 100 + uint32(i)},
		})
	}
	seed(probes)
	g := workload.NewLogGen(workload.DefaultLogConfig(3))
	seed(append(probes[:2:2], g.Next(2)...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		table := fuzzToRTable()
		var cb wire.ColumnarBatch
		if err := wire.NewColumnarDecoder().DecodeColumnar(data, &cb); err != nil {
			return // corrupt input is fine, panics are not
		}

		// Row reference: materialize and probe record at a time.
		var rows telemetry.Batch
		cb.AppendRows(&rows)
		j1r := operator.NewJoin("src", table.Len(), operator.SrcToRLookup(table))
		j2r := operator.NewJoin("dst", table.Len(), operator.DstToRLookup(table))
		var want telemetry.Batch
		for i := range rows {
			var mid telemetry.Batch
			operator.ProcessRows(j1r, rows[i:i+1], &mid)
			operator.ProcessRows(j2r, mid, &want)
		}

		// SoA path: the fused kernel pair over the same sections.
		j1c := operator.NewJoin("src", table.Len(), operator.SrcToRLookup(table))
		j1c.SetColumnarKernel(srcToRFusedKernel(table))
		j2c := operator.NewJoin("dst", table.Len(), operator.DstToRLookup(table))
		j2c.SetColumnarKernel(torPassKernel)
		j1c.ProcessColumnar(&cb)
		j2c.ProcessColumnar(&cb)
		var got telemetry.Batch
		cb.AppendRows(&got)

		if len(got) != len(want) {
			t.Fatalf("output counts differ: columnar %d, row %d", len(got), len(want))
		}
		var a, b []byte
		var err error
		for i := range want {
			if want[i].WireSize != got[i].WireSize {
				t.Fatalf("record %d wire size: row %d vs columnar %d", i, want[i].WireSize, got[i].WireSize)
			}
			if a, err = wire.EncodeRecord(a, want[i]); err != nil {
				t.Fatalf("row output does not encode: %v", err)
			}
			if b, err = wire.EncodeRecord(b, got[i]); err != nil {
				t.Fatalf("columnar output does not encode: %v", err)
			}
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("join outputs differ:\n%x\n%x", a, b)
		}
	})
}
