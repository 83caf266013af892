package transport

import (
	"bytes"
	"io"
	"net"
	"slices"
	"testing"

	"jarvis/internal/plan"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
)

// refuseGate is a HelloGate that admits nothing — an un-promoted standby.
type refuseGate struct{}

func (refuseGate) AdmitHello(uint64) (uint64, error) { return 0, io.ErrClosedPipe }

// TestHandshakeRejects pins the one connection contract from both ends.
// Receiver side: a Hello below wire v4, any data, watermark or EpochEnd
// frame ahead of the Hello, or a row-form data frame after it closes the
// connection with recv_errors counted, no epoch acked and nothing
// ingested — including on a standby, where hello-less frames used to
// reach the engine without ever meeting the gate. Shipper side: an ack
// that negotiates below v4, or lacks compression support for a
// compressing shipper, fails Connect with the replay buffer untouched,
// and a following Connect to a good receiver delivers every pending
// epoch.
func TestHandshakeRejects(t *testing.T) {
	// One epoch that would emit a result row if any of it were ingested:
	// a probe in window 0 and a watermark far past the window's end.
	probe := telemetry.NewProbeRecord(&telemetry.PingProbe{Timestamp: 1_000_000, SrcIP: 1, DstIP: 2, RTTMicros: 50})
	epoch := stream.EpochResult{Drains: []wire.ColumnarBatch{rowsBatch(telemetry.Batch{probe})}, ResultStage: 3, Watermark: 20_000_000}
	encoded := NewDurableShipper(3, 0)
	if err := encoded.ShipEpoch(epoch); err != nil {
		t.Fatal(err)
	}
	_, _, pending := encoded.State()
	epochBytes := pending[0].Data // columnar drain, watermark, EpochEnd

	frames := func(fs ...wire.Frame) []byte {
		var buf bytes.Buffer
		fw := wire.NewFrameWriter(&buf)
		for _, f := range fs {
			if err := fw.WriteFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// rowFrames writes data frames in the count-prefixed row form, which
	// FrameWriter keeps for control frames only.
	rowFrames := func(fs ...wire.Frame) []byte {
		var out []byte
		for _, f := range fs {
			var err error
			if out, err = wire.AppendRowFrame(out, f.StreamID, f.Source, f.Records); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	control := func(size int, data any) wire.Frame {
		return wire.Frame{StreamID: wire.ControlStreamID, Source: 3, Records: telemetry.Batch{{WireSize: size, Data: data}}}
	}
	drain := wire.Frame{StreamID: 0, Source: 3, Records: telemetry.Batch{probe}}
	watermark := wire.Frame{StreamID: WatermarkStreamID, Source: 3, Records: telemetry.Batch{
		{Time: 20_000_000, WireSize: 17, Data: &wire.Watermark{Time: 20_000_000}},
	}}

	hello := frames(control(29, &wire.Hello{Source: 3, Version: wire.CurrentWireVersion}))
	epochEnd := frames(control(33, &wire.EpochEnd{Seq: 1, Watermark: 20_000_000}))
	recvCases := []struct {
		name   string
		gate   HelloGate
		stream []byte
		// helloAcked: the Hello itself passes, so its ack (naming durable
		// seq 0) is the one ack the connection may carry.
		helloAcked bool
	}{
		{"hello v0 (pre-versioning)", nil, append(frames(control(29, &wire.Hello{Source: 3})), epochBytes...), false},
		{"hello v1", nil, append(frames(control(29, &wire.Hello{Source: 3, Version: wire.WireV1})), epochBytes...), false},
		{"hello v2 (unpacked columns)", nil, append(frames(control(29, &wire.Hello{Source: 3, Version: wire.WireV2, Compress: true})), epochBytes...), false},
		{"hello v3 (big-endian floats)", nil, append(frames(control(29, &wire.Hello{Source: 3, Version: wire.WireV3, Compress: true})), epochBytes...), false},
		{"data frame before hello", nil, epochBytes, false},
		{"row data frame before hello", nil, rowFrames(drain, watermark), false},
		{"row data frame after hello", nil, slices.Concat(hello, rowFrames(drain, watermark), epochEnd), true},
		{"watermark frame before hello", nil, frames(watermark, drain), false},
		{"epoch end before hello", nil, epochEnd, false},
		{"hello-less columnar stream on a standby", refuseGate{}, frames(drain, watermark), false},
	}
	for _, tc := range recvCases {
		t.Run(tc.name, func(t *testing.T) {
			engine, err := stream.NewSPEngine(plan.S2SProbe())
			if err != nil {
				t.Fatal(err)
			}
			rc := NewReceiver(engine)
			rc.SetHelloGate(tc.gate)
			var acks bytes.Buffer
			if err := rc.HandleConn(rwConn{bytes.NewReader(tc.stream), &acks}); err == nil {
				t.Fatal("connection was served to a clean EOF")
			}
			if got := rc.Counters().Get(CtrRecvErrors); got == 0 {
				t.Fatal("rejection not counted in recv_errors")
			}
			if rows := rc.Advance(); len(rows) != 0 {
				t.Fatalf("%d result rows from a rejected connection", len(rows))
			}
			if rc.AppliedSeq(3) != 0 || rc.Counters().Get(CtrEpochsApplied) != 0 {
				t.Fatal("an epoch was applied from a rejected connection")
			}
			fr := wire.NewFrameReader(&acks)
			for n := 0; ; n++ {
				f, err := fr.ReadFrame()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				ack, ok := f.Records[0].Data.(*wire.Ack)
				if !tc.helloAcked || n > 0 || !ok || ack.Seq != 0 {
					t.Fatalf("receiver acked a rejected connection: %+v", f.Records[0].Data)
				}
			}
		})
	}

	ackCases := []struct {
		name     string
		compress bool
		ack      wire.Ack
	}{
		{"ack v1", true, wire.Ack{Source: 3, Version: wire.WireV1, Compress: true}},
		{"ack v2 (unpacked columns)", true, wire.Ack{Source: 3, Version: wire.WireV2, Compress: true}},
		{"ack v3 (big-endian floats)", true, wire.Ack{Source: 3, Version: wire.WireV3, Compress: true}},
		{"ack v0 (pre-versioning)", false, wire.Ack{Source: 3}},
		{"ack without compress to a compressing shipper", true, wire.Ack{Source: 3, Version: wire.WireV4}},
	}
	for _, tc := range ackCases {
		t.Run(tc.name, func(t *testing.T) {
			ship := NewDurableShipper(3, 0)
			ship.SetCompression(tc.compress)
			const epochs = 3
			for i := 0; i < epochs; i++ {
				if err := ship.ShipEpoch(epoch); err != nil {
					t.Fatal(err)
				}
			}
			_, _, before := ship.State()

			// A peer that answers the Hello with the case's ack.
			client, server := net.Pipe()
			go func() {
				if _, err := wire.NewFrameReader(server).ReadFrame(); err == nil {
					_, _ = server.Write(frames(control(29, &tc.ack)))
				}
				_, _ = io.Copy(io.Discard, server)
			}()
			err := ship.ConnectConn(client)
			_ = client.Close()
			_ = server.Close()
			if err == nil {
				t.Fatal("ConnectConn adopted a peer that cannot read the replay buffer")
			}
			if ship.Connected() {
				t.Fatal("shipper reports connected after a refused handshake")
			}
			_, _, after := ship.State()
			if len(after) != len(before) {
				t.Fatalf("pending epochs %d → %d across a refused handshake", len(before), len(after))
			}
			for i := range after {
				if after[i].Seq != before[i].Seq || !bytes.Equal(after[i].Data, before[i].Data) {
					t.Fatalf("pending epoch %d changed across a refused handshake", i)
				}
			}

			engine, err := stream.NewSPEngine(plan.S2SProbe())
			if err != nil {
				t.Fatal(err)
			}
			rc := NewReceiver(engine)
			addr, stop := startTestServer(t, rc)
			defer stop()
			if err := ship.Connect(addr); err != nil {
				t.Fatal(err)
			}
			defer ship.Close()
			waitFor(t, "pending epochs acked by the good receiver", func() bool { return ship.Acked() == epochs })
			if got := rc.Counters().Get(CtrEpochsApplied); got != epochs {
				t.Fatalf("good receiver applied %d epochs, want %d", got, epochs)
			}
		})
	}
}
