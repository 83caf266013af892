package transport

import (
	"bytes"
	"context"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"jarvis/internal/plan"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
)

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// rwConn adapts a recorded byte stream plus an ack sink to HandleConn.
type rwConn struct {
	io.Reader
	io.Writer
}

// handleResume feeds a disconnected shipper's resume stream (Hello plus
// every pending epoch) through the receiver's HandleConn, acks discarded
// — the connectionless form of one sequenced session.
func handleResume(t *testing.T, rc *Receiver, ship *DurableShipper) error {
	t.Helper()
	data, err := ship.ResumeBytes()
	if err != nil {
		t.Fatal(err)
	}
	return rc.HandleConn(replayConn{bytes.NewReader(data)})
}

// runSourceOverPipe runs a source pipeline for the given epochs, shipping
// every epoch over an in-memory pipe into an SP receiver, and returns the
// final rows for window 0.
func runSourceOverPipe(t *testing.T, factors []float64) map[telemetry.GroupKey]telemetry.AggRow {
	t.Helper()
	q := plan.S2SProbe()
	src, err := stream.NewPipeline(q, stream.DefaultOptions(1.0, 0))
	if err != nil {
		t.Fatal(err)
	}
	_ = src.SetLoadFactors(factors)
	engine, err := stream.NewSPEngine(q)
	if err != nil {
		t.Fatal(err)
	}
	rc := NewReceiver(engine)
	rc.RegisterSource(7)

	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- rc.HandleConn(server) }()

	shipper := NewDurableShipper(7, 0)
	if err := shipper.ConnectConn(client); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(21))
	const epochs = 14
	for e := 0; e < epochs; e++ {
		var batch telemetry.Batch
		if e < 10 {
			batch = gen.NextWindow(1_000_000)
		} else {
			src.ObserveTime(int64(e+1) * 1_000_000)
		}
		res := src.RunEpoch(batch)
		if err := shipper.ShipEpoch(res); err != nil {
			t.Fatal(err)
		}
	}
	// Every ack read means the receiver is idle on this connection, so
	// closing now gives HandleConn a clean EOF.
	waitFor(t, "all epochs acked", func() bool { return shipper.Acked() == epochs })
	_ = shipper.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	rows := map[telemetry.GroupKey]telemetry.AggRow{}
	for _, rec := range rc.Advance() {
		row := rec.Data.(*telemetry.AggRow)
		if row.Window != 0 {
			continue
		}
		if prev, ok := rows[row.Key]; ok {
			prev.Merge(*row)
			rows[row.Key] = prev
		} else {
			rows[row.Key] = *row
		}
	}
	return rows
}

func TestShipOverPipeEquivalence(t *testing.T) {
	allSP := runSourceOverPipe(t, []float64{0, 0, 0})
	split := runSourceOverPipe(t, []float64{1, 1, 0.5})
	if len(allSP) == 0 {
		t.Fatal("no rows")
	}
	if len(split) != len(allSP) {
		t.Fatalf("rows: %d vs %d", len(split), len(allSP))
	}
	for k, want := range allSP {
		got, ok := split[k]
		if !ok || got.Count != want.Count || got.Min != want.Min || got.Max != want.Max {
			t.Fatalf("group %v: %+v vs %+v", k, got, want)
		}
	}
}

// rowsBatch presents records as an epoch output batch: one Rows section,
// the form a pipeline gives the records that travelled as rows.
func rowsBatch(rows telemetry.Batch) wire.ColumnarBatch {
	return wire.ColumnarBatch{Secs: []wire.ColSec{{Rows: rows}}}
}

// TestShipperAccounting pins what one shipped epoch costs on the wire:
// one data frame per non-empty stage and one for the results, then one
// watermark frame (and the EpochEnd commit marker), carrying exactly
// their payload bytes. A batch that holds a Rows section followed by a
// SoA section still ships as one frame, which decodes to the rows and
// then the SoA rows.
func TestShipperAccounting(t *testing.T) {
	probe := telemetry.NewProbeRecord(&telemetry.PingProbe{Timestamp: 1})
	soa := wire.ColSec{
		Tag: wire.TagPingProbe, Times: []int64{2, 3}, Windows: []int64{0, 0},
		Ping: &wire.PingCols{
			TS: []int64{2, 3}, SrcIP: []uint32{1, 1}, SrcCluster: []uint32{0, 0},
			DstIP: []uint32{2, 3}, DstCluster: []uint32{0, 0}, RTT: []uint32{50, 60}, Err: []uint32{0, 0},
		},
	}
	mixed := wire.ColumnarBatch{Secs: []wire.ColSec{{Rows: telemetry.Batch{probe}}, soa}}
	mixedRows := telemetry.Batch{probe}
	soaPart := wire.ColumnarBatch{Secs: []wire.ColSec{soa}}
	soaPart.AppendRows(&mixedRows)
	mixedBytes := probe.WireSize + int(soaPart.TotalBytes())

	cases := []struct {
		name  string
		res   stream.EpochResult
		data  []telemetry.Batch // each data frame's records, in frame order
		bytes []int             // each data frame's payload bytes
	}{
		{
			name: "rows",
			res: stream.EpochResult{
				Drains: []wire.ColumnarBatch{rowsBatch(telemetry.Batch{probe})}, ResultStage: 1, Watermark: 5,
			},
			data:  []telemetry.Batch{{probe}},
			bytes: []int{telemetry.PingProbeWireSize},
		},
		{
			name: "mixed",
			res: stream.EpochResult{
				Drains: []wire.ColumnarBatch{mixed}, Results: mixed, ResultStage: 1, Watermark: 5,
			},
			data:  []telemetry.Batch{mixedRows, mixedRows},
			bytes: []int{mixedBytes, mixedBytes},
		},
	}
	for _, tc := range cases {
		sh := NewDurableShipper(1, 0)
		if err := sh.ShipEpoch(tc.res); err != nil {
			t.Fatal(err)
		}
		_, _, pending := sh.State()
		if len(pending) != 1 {
			t.Fatalf("%s: pending epochs = %d", tc.name, len(pending))
		}
		var data []telemetry.Batch
		var sizes []int
		watermarks := 0
		fr := wire.NewFrameReader(bytes.NewReader(pending[0].Data))
		for {
			f, err := fr.ReadRows()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			switch f.StreamID {
			case wire.ControlStreamID:
			case WatermarkStreamID:
				watermarks++
				if f.PayloadBytes() != 17 {
					t.Fatalf("%s: watermark payload %d bytes", tc.name, f.PayloadBytes())
				}
			default:
				data = append(data, f.Records)
				sizes = append(sizes, int(f.PayloadBytes()))
			}
		}
		if watermarks != 1 || len(data) != len(tc.data) {
			t.Fatalf("%s: %d data and %d watermark frames, want %d and 1", tc.name, len(data), watermarks, len(tc.data))
		}
		if !reflect.DeepEqual(data, tc.data) {
			t.Fatalf("%s: frames decode to %v, want %v", tc.name, data, tc.data)
		}
		if !reflect.DeepEqual(sizes, tc.bytes) {
			t.Fatalf("%s: frame payload bytes %v, want %v", tc.name, sizes, tc.bytes)
		}
	}
}

func TestReceiverWatermarkRouting(t *testing.T) {
	engine, err := stream.NewSPEngine(plan.S2SProbe())
	if err != nil {
		t.Fatal(err)
	}
	rc := NewReceiver(engine)
	sh := NewDurableShipper(3, 0)
	rec := telemetry.NewProbeRecord(&telemetry.PingProbe{Timestamp: 1_000_000, SrcIP: 1, DstIP: 2, RTTMicros: 50})
	res := stream.EpochResult{
		Drains:      []wire.ColumnarBatch{rowsBatch(telemetry.Batch{rec})},
		ResultStage: 3,
		Watermark:   20_000_000,
	}
	if err := sh.ShipEpoch(res); err != nil {
		t.Fatal(err)
	}
	if err := handleResume(t, rc, sh); err != nil {
		t.Fatal(err)
	}
	out := rc.Advance()
	if len(out) != 1 {
		t.Fatalf("rows = %d", len(out))
	}
	// Drain + watermark as before, plus the session's Hello (29 B) and
	// EpochEnd (33 B) control frames.
	if rc.Frames() != 4 || rc.BytesIn() != telemetry.PingProbeWireSize+17+29+33 {
		t.Fatalf("accounting: frames=%d bytes=%d", rc.Frames(), rc.BytesIn())
	}
}

func TestReceiverBadStage(t *testing.T) {
	engine, _ := stream.NewSPEngine(plan.S2SProbe())
	rc := NewReceiver(engine)
	sh := NewDurableShipper(1, 0)
	rec := telemetry.NewProbeRecord(&telemetry.PingProbe{})
	res := stream.EpochResult{
		Results:     rowsBatch(telemetry.Batch{rec}),
		ResultStage: 99, // invalid stage
		Watermark:   1,
	}
	_ = sh.ShipEpoch(res)
	if err := handleResume(t, rc, sh); err == nil {
		t.Fatal("invalid stage should propagate an error")
	}
}

func TestTCPServerEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	q := plan.S2SProbe()
	engine, err := stream.NewSPEngine(q)
	if err != nil {
		t.Fatal(err)
	}
	rc := NewReceiver(engine)
	srv := NewServer(rc)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(ctx, ln)
	}()

	// Two agents ship concurrently. Their connections stay open until the
	// results are in: closing with acks unread could reset the socket under
	// the server before it has read the tail.
	var agents sync.WaitGroup
	ships := [2]*DurableShipper{NewDurableShipper(1, 0), NewDurableShipper(2, 0)}
	for _, sh := range ships {
		defer sh.Close()
		rc.RegisterSource(sh.Source())
		agents.Add(1)
		go func(sh *DurableShipper) {
			defer agents.Done()
			id := sh.Source()
			if err := sh.Connect(ln.Addr().String()); err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			src, err := stream.NewPipeline(q, stream.DefaultOptions(1.0, 0))
			if err != nil {
				t.Errorf("pipeline: %v", err)
				return
			}
			_ = src.SetLoadFactors([]float64{1, 1, 1})
			cfg := workload.DefaultPingConfig(uint64(id) * 31)
			cfg.SrcIP = 0x0A000000 + id
			gen := workload.NewPingGen(cfg)
			for e := 0; e < 13; e++ {
				var batch telemetry.Batch
				if e < 10 {
					batch = gen.NextWindow(1_000_000)
				} else {
					src.ObserveTime(int64(e+1) * 1_000_000)
				}
				if err := sh.ShipEpoch(src.RunEpoch(batch)); err != nil {
					t.Errorf("ship: %v", err)
					return
				}
			}
		}(sh)
	}
	agents.Wait()

	// Wait for the server to drain both connections.
	deadline := time.Now().Add(5 * time.Second)
	var rows telemetry.Batch
	for time.Now().Before(deadline) {
		rows = append(rows, rc.Advance()...)
		if len(rows) > 0 && rc.Frames() >= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(rows) == 0 {
		t.Fatal("no merged results from TCP agents")
	}
	_ = srv.Close()
	cancel()
	wg.Wait()
}
