package transport

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"jarvis/internal/plan"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
)

// TestColumnarRowParity extends the engine's execution-parity guarantee
// across the wire: agent epochs are applied to four SP replicas — as
// decoded SoA sections through the receiver, as row batches decoded and
// ingested by the test itself, record at a time, and from a second agent
// pipeline running SoA end to end (columnar generation,
// RunEpochColumnar, flate-compressed columnar frames) — and all four
// must emit byte-identical results on the paper's queries, under
// routing that exercises drains at every stage, partial aggregates and
// window flushes.

func colParityTable() *telemetry.ToRTable {
	ips := []uint32{workload.DefaultPingConfig(7).SrcIP}
	for i := 0; i < 2000; i++ {
		ips = append(ips, 0x0B000000+uint32(i))
	}
	return telemetry.NewToRTable(ips, 40)
}

func colParityFactors(nops, epoch int) []float64 {
	out := make([]float64, nops)
	for i := range out {
		switch epoch % 3 {
		case 0:
			out[i] = 1
		case 1:
			out[i] = 1 - 0.2*float64(i)
		default:
			out[i] = 0.5
		}
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

// encodeBatch renders a result batch to canonical wire bytes, the
// "byte-identical" yardstick.
func encodeBatch(t *testing.T, batch telemetry.Batch) []byte {
	t.Helper()
	var buf []byte
	var err error
	for _, rec := range batch {
		buf, err = wire.EncodeRecord(buf, rec)
		if err != nil {
			t.Fatalf("encode result: %v", err)
		}
	}
	return buf
}

func TestColumnarRowParity(t *testing.T) {
	pingGen := func() func() telemetry.Batch {
		g := workload.NewPingGen(workload.DefaultPingConfig(7))
		return func() telemetry.Batch { return g.NextWindow(1_000_000) }
	}
	pingColGen := func() func(cb *wire.ColumnarBatch) {
		g := workload.NewPingGen(workload.DefaultPingConfig(7))
		return func(cb *wire.ColumnarBatch) { g.NextWindowCols(1_000_000, cb) }
	}
	cases := []struct {
		name   string
		query  func() *plan.Query
		gen    func() func() telemetry.Batch
		colGen func() func(cb *wire.ColumnarBatch)
	}{
		{
			name:   "S2SProbe",
			query:  plan.S2SProbe,
			gen:    pingGen,
			colGen: pingColGen,
		},
		{
			name:   "T2TProbe",
			query:  func() *plan.Query { return plan.T2TProbe(colParityTable()) },
			gen:    pingGen,
			colGen: pingColGen,
		},
		{
			name:   "S2SQuantile",
			query:  plan.S2SQuantileProbe,
			gen:    pingGen,
			colGen: pingColGen,
		},
		{
			name:  "LogAnalytics",
			query: plan.LogAnalytics,
			gen: func() func() telemetry.Batch {
				g := workload.NewLogGen(workload.DefaultLogConfig(7))
				return func() telemetry.Batch { return g.NextWindow(1_000_000) }
			},
			colGen: func() func(cb *wire.ColumnarBatch) {
				g := workload.NewLogGen(workload.DefaultLogConfig(7))
				return func(cb *wire.ColumnarBatch) { g.NextWindowCols(1_000_000, cb) }
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pipe, err := stream.NewPipeline(tc.query(), stream.DefaultOptions(4.0, 0))
			if err != nil {
				t.Fatal(err)
			}
			soaPipe, err := stream.NewPipeline(tc.query(), stream.DefaultOptions(4.0, 0))
			if err != nil {
				t.Fatal(err)
			}
			newEngine := func() *stream.SPEngine {
				e, err := stream.NewSPEngine(tc.query())
				if err != nil {
					t.Fatal(err)
				}
				e.RegisterSource(1)
				return e
			}
			colEngine, rowEngine, recEngine, soaEngine := newEngine(), newEngine(), newEngine(), newEngine()
			colRC := NewReceiver(colEngine) // decoded SoA sections
			soaRC := NewReceiver(soaEngine) // fed by the SoA agent pipeline

			// feedRows decodes the shipped epoch into row batches (a plain
			// frame reader materializes records) and applies each frame to
			// the engine whole (the row reference) or one record at a time
			// (the record-at-a-time reference).
			feedRows := func(e *stream.SPEngine, data []byte, whole bool) {
				fr := wire.NewFrameReader(bytes.NewReader(data))
				for {
					f, err := fr.ReadFrame()
					if err != nil {
						break
					}
					if f.StreamID == WatermarkStreamID {
						for _, rec := range f.Records {
							if wm, ok := rec.Data.(*wire.Watermark); ok {
								e.ObserveWatermark(f.Source, wm.Time)
							}
						}
						continue
					}
					step := 1
					if whole {
						step = len(f.Records)
					}
					for i := 0; i < len(f.Records); i += step {
						if err := e.Ingest(int(f.StreamID), f.Records[i:i+step]); err != nil {
							t.Fatal(err)
						}
					}
				}
			}

			gen, colGen := tc.gen(), tc.colGen()
			nops := len(pipe.Query().Ops)
			var cb wire.ColumnarBatch
			sawOutput := false
			for epoch := 0; epoch < 13; epoch++ {
				lf := colParityFactors(nops, epoch)
				if tc.name == "T2TProbe" {
					// The dstToR join's input is an intermediate payload type
					// with no wire encoding, so epochs shipped over a real
					// transport never drain at that stage.
					lf[3] = 1
				}
				if err := pipe.SetLoadFactors(lf); err != nil {
					t.Fatal(err)
				}
				if err := soaPipe.SetLoadFactors(lf); err != nil {
					t.Fatal(err)
				}
				cb.Reset()
				var input telemetry.Batch
				if epoch < 11 {
					input = gen()
					colGen(&cb)
				} else {
					pipe.ObserveTime(int64(epoch+1) * 1_000_000)
					soaPipe.ObserveTime(int64(epoch+1) * 1_000_000)
				}
				res := pipe.RunEpoch(input)
				var buf bytes.Buffer
				sh := NewShipper(1, &buf)
				sh.EnableColumnar()
				if err := sh.ShipEpoch(res); err != nil {
					t.Fatal(err)
				}
				data := buf.Bytes()
				if err := colRC.HandleStream(bytes.NewReader(data)); err != nil {
					t.Fatal(err)
				}
				feedRows(rowEngine, data, true)
				feedRows(recEngine, data, false)

				// Fourth leg: the SoA agent pipeline's epoch, shipped with
				// frame compression on.
				soaRes := soaPipe.RunEpochColumnar(&cb)
				var soaBuf bytes.Buffer
				soaSh := NewShipper(1, &soaBuf)
				soaSh.EnableColumnar()
				soaSh.EnableCompression()
				if err := soaSh.ShipEpoch(soaRes); err != nil {
					t.Fatal(err)
				}
				if err := soaRC.HandleStream(bytes.NewReader(soaBuf.Bytes())); err != nil {
					t.Fatal(err)
				}

				colOut := colRC.Advance()
				rowOut := rowEngine.Advance()
				recOut := recEngine.Advance()
				soaOut := soaRC.Advance()
				if err := tripleEqual(t, colOut, rowOut, recOut); err != nil {
					t.Fatalf("epoch %d: %v", epoch, err)
				}
				if err := tripleEqual(t, colOut, soaOut, soaOut); err != nil {
					t.Fatalf("epoch %d (SoA agent leg): %v", epoch, err)
				}
				if len(colOut) > 0 {
					sawOutput = true
				}
			}
			if !sawOutput {
				t.Fatal("parity run never flushed results — the test is vacuous")
			}
		})
	}
}

func tripleEqual(t *testing.T, col, row, rec telemetry.Batch) error {
	t.Helper()
	if len(col) != len(row) || len(col) != len(rec) {
		return fmt.Errorf("result counts differ: columnar %d, row %d, record %d", len(col), len(row), len(rec))
	}
	for i := range col {
		if !reflect.DeepEqual(col[i], row[i]) {
			return fmt.Errorf("record %d: columnar %+v vs row %+v", i, col[i], row[i])
		}
		if !reflect.DeepEqual(col[i], rec[i]) {
			return fmt.Errorf("record %d: columnar %+v vs record-at-a-time %+v", i, col[i], rec[i])
		}
	}
	cb, rb, eb := encodeBatch(t, col), encodeBatch(t, row), encodeBatch(t, rec)
	if !bytes.Equal(cb, rb) || !bytes.Equal(cb, eb) {
		return fmt.Errorf("encoded results not byte-identical (%d/%d/%d bytes)", len(cb), len(rb), len(eb))
	}
	return nil
}
