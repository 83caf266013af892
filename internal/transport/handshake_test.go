package transport

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"slices"
	"testing"
	"time"

	"jarvis/internal/plan"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
)

// refuseGate is a HelloGate that admits nothing — an un-promoted standby.
type refuseGate struct{}

func (refuseGate) AdmitHello(uint64) (uint64, error) { return 0, io.ErrClosedPipe }

// writeFrames encodes frames as FrameWriter puts them on the wire: data
// frames columnar, control frames in row form.
func writeFrames(t testing.TB, fs ...wire.Frame) []byte {
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

// writeRowFrames encodes data frames in the count-prefixed row form,
// which FrameWriter keeps for control frames only.
func writeRowFrames(t testing.TB, fs ...wire.Frame) []byte {
	var out []byte
	for _, f := range fs {
		var err error
		if out, err = wire.AppendRowFrame(out, f.StreamID, f.Source, f.Records); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func controlFrame(src uint32, size int, data any) wire.Frame {
	return wire.Frame{StreamID: wire.ControlStreamID, Source: src, Records: telemetry.Batch{{WireSize: size, Data: data}}}
}

// handshakeProbe is a probe in window 0: ingested and closed by a later
// watermark, it emits a result row.
var handshakeProbe = telemetry.NewProbeRecord(&telemetry.PingProbe{Timestamp: 1_000_000, SrcIP: 1, DstIP: 2, RTTMicros: 50})

func drainFrame(src uint32) wire.Frame {
	return wire.Frame{StreamID: 0, Source: src, Records: telemetry.Batch{handshakeProbe}}
}

func watermarkFrame(src uint32, wm int64) wire.Frame {
	return wire.Frame{StreamID: WatermarkStreamID, Source: src, Records: telemetry.Batch{
		{Time: wm, WireSize: 17, Data: &wire.Watermark{Time: wm}},
	}}
}

// watermarkSources lists the sources the engine merges watermarks over.
func watermarkSources(engine *stream.SPEngine) []uint32 {
	var srcs []uint32
	engine.SourceWatermarks(func(src uint32, _ int64) { srcs = append(srcs, src) })
	slices.Sort(srcs)
	return srcs
}

// TestHandshakeRejects pins the one connection contract from both ends.
// Receiver side: a Hello below wire v4, any data, watermark or EpochEnd
// frame ahead of the Hello, a row-form data frame or a frame naming
// another source after it, or a control record other than a Hello or an
// EpochEnd anywhere closes the connection with recv_errors counted, no
// epoch acked, nothing ingested and no watermark source but the Hello's
// — including on a standby, where hello-less frames used to reach the
// engine without ever meeting the gate. Shipper side: an ack
// that negotiates below v4, or lacks compression support for a
// compressing shipper, fails Connect with the replay buffer untouched,
// and a following Connect to a good receiver delivers every pending
// epoch.
func TestHandshakeRejects(t *testing.T) {
	// One epoch that would emit a result row if any of it were ingested:
	// a probe in window 0 and a watermark far past the window's end.
	epoch := stream.EpochResult{Drains: []wire.ColumnarBatch{rowsBatch(telemetry.Batch{handshakeProbe})}, ResultStage: 3, Watermark: 20_000_000}
	encoded := NewDurableShipper(3, 0)
	if err := encoded.ShipEpoch(epoch); err != nil {
		t.Fatal(err)
	}
	_, _, pending := encoded.State()
	epochBytes := pending[0].Data // columnar drain, watermark, EpochEnd

	frames := func(fs ...wire.Frame) []byte { return writeFrames(t, fs...) }
	rowFrames := func(fs ...wire.Frame) []byte { return writeRowFrames(t, fs...) }
	control := func(size int, data any) wire.Frame { return controlFrame(3, size, data) }
	drain, watermark := drainFrame(3), watermarkFrame(3, 20_000_000)
	stray := frames(control(33, &wire.ReplHello{Version: wire.CurrentWireVersion}))

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
		{"frame for another source after hello", nil, slices.Concat(hello, frames(watermarkFrame(99, 0)), epochEnd), true},
		{"stray control record before hello", nil, slices.Concat(stray, hello, epochBytes), false},
		{"stray control record after hello", nil, slices.Concat(hello, stray, epochBytes), true},
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
				t.Error("connection was served to a clean EOF")
			}
			if got := rc.Counters().Get(CtrRecvErrors); got == 0 {
				t.Error("rejection not counted in recv_errors")
			}
			if srcs := watermarkSources(engine); len(srcs) > 1 || len(srcs) == 1 && srcs[0] != 3 {
				t.Errorf("watermark sources %v from a rejected connection, want at most the hello's [3]", srcs)
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

// TestConnectAdoptsHelloAckThrottle: the Hello's ack is an ack like any
// other, so the backpressure hint it carries is adopted on connect, not
// only from the acks that follow.
func TestConnectAdoptsHelloAckThrottle(t *testing.T) {
	ship := NewDurableShipper(3, 0)
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	ack := writeFrames(t, controlFrame(3, 29, &wire.Ack{
		Source: 3, Version: wire.CurrentWireVersion, Compress: true, ThrottleMicros: 5000,
	}))
	go func() {
		if _, err := wire.NewFrameReader(server).ReadFrame(); err == nil {
			_, _ = server.Write(ack)
		}
		_, _ = io.Copy(io.Discard, server)
	}()
	if err := ship.ConnectConn(client); err != nil {
		t.Fatal(err)
	}
	if got := ship.ThrottleHint(); got != 5*time.Millisecond {
		t.Fatalf("throttle hint after the hello ack = %v, want 5ms", got)
	}
}

// Fuzz event kinds: the frames a peer can put on a receiver connection.
const (
	evHello = iota
	evData
	evWatermark
	evEpochEnd
	evReplHello // stray control records: a standby dialing a data port,
	evAck       // or a receiver's own ack echoed back
	evKinds
)

// hsEvent is one frame of a fuzzed connection.
type hsEvent struct {
	kind    int
	row     bool   // data or watermark frame in row form
	refused bool   // Hello: the gate refuses it
	version uint32 // Hello
	seq     uint64 // Hello or EpochEnd
	src     uint32
}

// decodeEvents reads at most 32 events of three bytes each: op (bits 0-2
// the kind mod evKinds, bit 3 row form, bit 4 gate refusal, bits 5-7 the
// Hello's version: 1-4 mean v0-v3, anything else the current one), seq
// (mod 8) and source (3 or 4 by the low bit).
func decodeEvents(data []byte) []hsEvent {
	var evs []hsEvent
	for ; len(data) >= 3 && len(evs) < 32; data = data[3:] {
		op := data[0]
		e := hsEvent{kind: int(op&7) % evKinds, row: op&8 != 0, refused: op&16 != 0,
			version: wire.CurrentWireVersion, seq: uint64(data[1] % 8), src: 3 + uint32(data[2]&1)}
		if v := op >> 5; v >= 1 && v <= 4 {
			e.version = uint32(v - 1)
		}
		evs = append(evs, e)
	}
	return evs
}

// encodeEvents writes the events as the wire stream a peer would send.
// A refused Hello carries term 1, which termGate turns down.
func encodeEvents(t testing.TB, evs []hsEvent) []byte {
	var out []byte
	for _, e := range evs {
		var f wire.Frame
		switch e.kind {
		case evHello:
			h := &wire.Hello{Source: e.src, Seq: e.seq, Version: e.version}
			if e.refused {
				h.Term = 1
			}
			f = controlFrame(e.src, 29, h)
		case evData:
			f = drainFrame(e.src)
		case evWatermark:
			f = watermarkFrame(e.src, int64(e.seq+1)*1_000_000)
		case evEpochEnd:
			f = controlFrame(e.src, 33, &wire.EpochEnd{Seq: e.seq, Watermark: int64(e.seq) * 1_000_000})
		case evReplHello:
			f = controlFrame(e.src, 33, &wire.ReplHello{Version: wire.CurrentWireVersion})
		case evAck:
			f = controlFrame(e.src, 29, &wire.Ack{Source: e.src, Seq: e.seq, Version: wire.CurrentWireVersion})
		}
		if e.row && (e.kind == evData || e.kind == evWatermark) {
			out = append(out, writeRowFrames(t, f)...)
		} else {
			out = append(out, writeFrames(t, f)...)
		}
	}
	return out
}

// termGate refuses hellos carrying term 1 and admits the rest.
type termGate struct{}

func (termGate) AdmitHello(term uint64) (uint64, error) {
	if term == 1 {
		return 0, io.ErrClosedPipe
	}
	return 0, nil
}

// hsOutcome is what a connection leaves behind, as far as the handshake
// decides it.
type hsOutcome struct {
	refused        bool
	recvErrors     int64
	hellosRejected int64
	acks           [][2]uint64 // (source, seq) of every ack written
	applied        [2]uint64   // AppliedSeq of sources 3 and 4
	sources        []uint32    // SourceWatermarks keys, sorted
}

// modelHandshake is the reference the receiver is held to: the rules of
// the package doc's table over a fresh receiver without admission
// control, where every epoch above the frontier applies and acks at once.
func modelHandshake(evs []hsEvent) hsOutcome {
	var o hsOutcome
	durable := [2]uint64{}
	src, hello := uint32(0), false
	for _, e := range evs {
		stray := e.kind == evReplHello || e.kind == evAck
		data := e.kind == evData || e.kind == evWatermark
		switch {
		case stray, e.kind == evHello && e.version < wire.WireV4, hello && e.src != src,
			!hello && e.kind != evHello, data && e.row:
			o.refused, o.recvErrors = true, 1
			return o
		case e.kind == evHello && e.refused:
			o.refused, o.hellosRejected = true, 1
			return o
		case e.kind == evHello:
			if src, hello = e.src, true; e.seq == 0 {
				o.applied[src-3], durable[src-3] = 0, 0
			}
			if !slices.Contains(o.sources, src) {
				o.sources = append(o.sources, src)
			}
			o.acks = append(o.acks, [2]uint64{uint64(src), durable[src-3]})
		case e.kind == evEpochEnd:
			if e.seq > o.applied[src-3] {
				o.applied[src-3], durable[src-3] = e.seq, e.seq
			}
			o.acks = append(o.acks, [2]uint64{uint64(src), durable[src-3]})
		}
	}
	slices.Sort(o.sources)
	return o
}

// FuzzHandshake drives HandleConn with arbitrary orderings of Hellos
// (any version, either gate verdict, fresh or resuming), data and
// watermark frames in either form, EpochEnds and stray control records,
// for two sources, and holds the outcome to modelHandshake. In memory:
// no socket, no goroutine.
func FuzzHandshake(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		evs := decodeEvents(data)
		engine, err := stream.NewSPEngine(plan.S2SProbe())
		if err != nil {
			t.Fatal(err)
		}
		rc := NewReceiver(engine)
		rc.SetHelloGate(termGate{})
		var acks bytes.Buffer
		herr := rc.HandleConn(rwConn{bytes.NewReader(encodeEvents(t, evs)), &acks})
		got := hsOutcome{
			refused:        herr != nil,
			recvErrors:     rc.Counters().Get(CtrRecvErrors),
			hellosRejected: rc.Counters().Get(CtrHellosRejected),
			applied:        [2]uint64{rc.AppliedSeq(3), rc.AppliedSeq(4)},
			sources:        watermarkSources(engine),
		}
		fr := wire.NewFrameReader(&acks)
		for {
			f, err := fr.ReadFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			ack := f.Records[0].Data.(*wire.Ack)
			got.acks = append(got.acks, [2]uint64{uint64(ack.Source), ack.Seq})
		}
		if want := modelHandshake(evs); !reflect.DeepEqual(got, want) {
			t.Fatalf("events %+v (HandleConn: %v)\n got %+v\nwant %+v", evs, herr, got, want)
		}
	})
}
