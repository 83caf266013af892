package transport

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
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
// window flushes. Both shipped legs are sequenced sessions (one
// DurableShipper each, flushed per epoch through HandleConn the way the
// cluster sim does); the compressed leg must also show up as such in the
// receiver's wire accounting.

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

			// feedRows decodes the shipped epoch into row batches (ReadRows
			// materializes records) and applies each frame to the engine
			// whole (the row reference) or one record at a time (the
			// record-at-a-time reference).
			feedRows := func(e *stream.SPEngine, data []byte, whole bool) {
				fr := wire.NewFrameReader(bytes.NewReader(data))
				for {
					f, err := fr.ReadRows()
					if err != nil {
						break
					}
					if f.StreamID == wire.ControlStreamID {
						continue // Hello / EpochEnd: session framing, no payload
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

			// flush runs one sequenced session: the shipper's Hello plus its
			// one pending epoch in, acks adopted so the next flush carries
			// only the next epoch. It returns the stream it sent.
			flush := func(rc *Receiver, sh *DurableShipper) []byte {
				data, err := sh.ResumeBytes()
				if err != nil {
					t.Fatal(err)
				}
				if err := sh.Flush(rc); err != nil {
					t.Fatal(err)
				}
				return data
			}
			sh := NewDurableShipper(1, 0)
			soaSh := NewDurableShipper(1, 0)
			soaSh.SetCompression(true)

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
				if err := sh.ShipEpoch(res); err != nil {
					t.Fatal(err)
				}
				data := flush(colRC, sh)
				feedRows(rowEngine, data, true)
				feedRows(recEngine, data, false)

				// Fourth leg: the SoA agent pipeline's epoch, shipped with
				// frame compression on.
				soaRes := soaPipe.RunEpochColumnar(&cb)
				if err := soaSh.ShipEpoch(soaRes); err != nil {
					t.Fatal(err)
				}
				flush(soaRC, soaSh)

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
			if got := colRC.Counters().Get(CtrEpochsApplied); got != 13 {
				t.Fatalf("plain leg applied %d epochs, want 13", got)
			}
			if got := soaRC.Counters().Get(CtrEpochsApplied); got != 13 {
				t.Fatalf("compressed leg applied %d epochs, want 13", got)
			}
			if w, raw := colRC.Counters().Get(CtrWireBytesIn), colRC.Counters().Get(CtrWireRawBytesIn); w != raw {
				t.Fatalf("plain leg: wire_bytes_in %d != wire_raw_bytes_in %d", w, raw)
			}
			if w, raw := soaRC.Counters().Get(CtrWireBytesIn), soaRC.Counters().Get(CtrWireRawBytesIn); w >= raw {
				t.Fatalf("compressed leg: wire_bytes_in %d not below wire_raw_bytes_in %d", w, raw)
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

// teeConn records every byte the shipper writes to its connection.
type teeConn struct {
	net.Conn
	mu      sync.Mutex
	written bytes.Buffer
}

func (c *teeConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.written.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *teeConn) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.written.Bytes()...)
}

// leg is one shipper→receiver pair of TestCompressedConnectionParity.
type leg struct {
	name  string
	flate bool // the leg's epochs are encoded compressed
	rc    *Receiver
	ship  *DurableShipper
	addr  string
	tee   *teeConn
}

// dialThroughTee makes the leg's shipper record its next connection's
// writes in l.tee.
func (l *leg) dialThroughTee() {
	l.ship.SetDialer(func(addr string) (io.ReadWriteCloser, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		l.tee = &teeConn{Conn: conn}
		return l.tee, nil
	})
}

// TestCompressedConnectionParity covers the production default
// (jarvis-agent -wire-compress=true) over real TCP: a compressing
// shipper's run must equal the plain run row for row while the receiver
// accounts fewer wire bytes than raw bytes, and replay-buffer bytes —
// epochs encoded before Connect, and epochs restored into a shipper
// whose own compression setting differs from the one they were encoded
// under — must reach the socket verbatim and apply exactly once.
func TestCompressedConnectionParity(t *testing.T) {
	const (
		epochs     = 13
		preConnect = 5 // epochs the "late" shipper encodes before it connects
	)
	newLeg := func(name string, flate bool) *leg {
		engine, err := stream.NewSPEngine(plan.S2SProbe())
		if err != nil {
			t.Fatal(err)
		}
		l := &leg{name: name, flate: flate, rc: NewReceiver(engine), ship: NewDurableShipper(1, 0)}
		l.rc.RegisterSource(1)
		l.ship.SetCompression(flate)
		var stop func()
		l.addr, stop = startTestServer(t, l.rc)
		t.Cleanup(stop)
		l.dialThroughTee()
		return l
	}
	plain := newLeg("plain", false)
	late := newLeg("compressed, buffer filled before Connect", true)
	// The restored legs' first shippers never connect: they only encode.
	fromFlate := newLeg("compressed bytes restored into a plain shipper", true)
	fromPlain := newLeg("plain bytes restored into a compressing shipper", false)
	legs := []*leg{plain, late, fromFlate, fromPlain}

	if err := plain.ship.Connect(plain.addr); err != nil {
		t.Fatal(err)
	}
	pipe, err := stream.NewPipeline(plan.S2SProbe(), stream.DefaultOptions(4.0, 0))
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(7))
	var cb wire.ColumnarBatch
	var buffered []PendingEpoch
	for epoch := 0; epoch < epochs; epoch++ {
		if err := pipe.SetLoadFactors(colParityFactors(len(pipe.Query().Ops), epoch)); err != nil {
			t.Fatal(err)
		}
		cb.Reset()
		if epoch < 11 {
			gen.NextWindowCols(1_000_000, &cb)
		} else {
			pipe.ObserveTime(int64(epoch+1) * 1_000_000)
		}
		// The pipeline reuses the result's buffers next epoch, so every leg
		// encodes it now, connected or not.
		res := pipe.RunEpochColumnar(&cb)
		for _, l := range legs {
			if err := l.ship.ShipEpoch(res); err != nil {
				t.Fatal(err)
			}
		}
		if epoch+1 == preConnect {
			_, _, buffered = late.ship.State()
			if len(buffered) != preConnect {
				t.Fatalf("late leg buffered %d epochs before Connect, want %d", len(buffered), preConnect)
			}
			if err := late.ship.Connect(late.addr); err != nil {
				t.Fatal(err)
			}
		}
	}
	restored := map[*leg][]PendingEpoch{late: buffered}
	for _, l := range []*leg{fromFlate, fromPlain} {
		seq, acked, pending := l.ship.State()
		if len(pending) != epochs {
			t.Fatalf("%s: %d pending epochs, want %d", l.name, len(pending), epochs)
		}
		// The restarted agent's flag flipped: it must still replay the
		// snapshot's bytes as they are.
		l.ship = NewDurableShipper(1, 0)
		l.ship.SetCompression(!l.flate)
		l.ship.RestoreState(seq, acked, pending)
		l.dialThroughTee()
		restored[l] = pending
		if err := l.ship.Connect(l.addr); err != nil {
			t.Fatal(err)
		}
	}

	var want []byte
	for _, l := range legs {
		waitFor(t, l.name+": all epochs acked", func() bool { return l.ship.Acked() == epochs })
		if got := l.rc.Counters().Get(CtrEpochsApplied); got != epochs {
			t.Fatalf("%s: %d epochs applied, want %d (exactly once)", l.name, got, epochs)
		}
		rows := encodeBatch(t, l.rc.Advance())
		if l == plain {
			if len(rows) == 0 {
				t.Fatal("plain run produced no results — the comparison is vacuous")
			}
			want = rows
		} else if !bytes.Equal(rows, want) {
			t.Fatalf("%s: result rows differ from the plain run (%d vs %d bytes)", l.name, len(rows), len(want))
		}
		w, raw := l.rc.Counters().Get(CtrWireBytesIn), l.rc.Counters().Get(CtrWireRawBytesIn)
		if l.flate && w >= raw {
			t.Fatalf("%s: wire_bytes_in %d not below wire_raw_bytes_in %d", l.name, w, raw)
		} else if !l.flate && w != raw {
			t.Fatalf("%s: wire_bytes_in %d != wire_raw_bytes_in %d on an uncompressed stream", l.name, w, raw)
		}
		sent := l.tee.bytes()
		for _, p := range restored[l] {
			if !bytes.Contains(sent, p.Data) {
				t.Fatalf("%s: buffered epoch %d did not reach the socket verbatim", l.name, p.Seq)
			}
		}
		_ = l.ship.Close()
	}
}
