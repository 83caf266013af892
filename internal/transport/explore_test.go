package transport

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"jarvis/internal/admission"
	"jarvis/internal/plan"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
)

// exploreDepth bounds the event sequences TestSequencingExplore walks.
const exploreDepth = 8

// Explorer event kinds: what a peer can do to a receiver.
const (
	exHello = iota
	exData
	exWatermark
	exEnd
	exStray     // a control record that is not a Hello or EpochEnd
	exForeign   // a watermark frame naming the other source
	exReconnect // end the connection and open a new one
)

// exEvent is one peer event. Frames other than a Hello name the
// connection's source: that of the last Hello sent on it, 3 before any.
type exEvent struct {
	name    string
	kind    int
	src     uint32 // Hello: the source it announces
	seq     uint64 // Hello: 0 fresh, else resuming; EpochEnd: the epoch
	refused bool   // Hello: the gate refuses it
}

var exEvents = []exEvent{
	{name: "hello(3)", kind: exHello, src: 3},
	{name: "hello(3,resume)", kind: exHello, src: 3, seq: 1},
	{name: "hello(4)", kind: exHello, src: 4},
	{name: "hello(4,resume)", kind: exHello, src: 4, seq: 1},
	{name: "hello(3,refused)", kind: exHello, src: 3, refused: true},
	{name: "data", kind: exData},
	{name: "watermark", kind: exWatermark},
	{name: "end(1)", kind: exEnd, seq: 1},
	{name: "end(2)", kind: exEnd, seq: 2},
	{name: "end(3)", kind: exEnd, seq: 3},
	{name: "stray", kind: exStray},
	{name: "foreign", kind: exForeign},
	{name: "reconnect", kind: exReconnect},
}

// exWatermarkTime is the time a watermark frame carries: above the
// EpochEnd watermarks of epochs 1 and 2 (seq × 1 s), so whether a staged
// watermark frame was applied shows in the source's watermark.
const exWatermarkTime = 2_500_000

// exGate refuses Hellos that carry term 1.
type exGate struct{}

func (exGate) AdmitHello(term uint64) (uint64, error) {
	if term == 1 {
		return 0, io.ErrClosedPipe
	}
	return 0, nil
}

// exFrame is the frame event e puts on the wire of a connection whose
// frames name source peer.
func exFrame(e exEvent, peer uint32) wire.Frame {
	control := func(src uint32, size int, data any) wire.Frame {
		return wire.Frame{StreamID: wire.ControlStreamID, Source: src, Records: telemetry.Batch{{WireSize: size, Data: data}}}
	}
	watermark := func(src uint32) wire.Frame {
		return wire.Frame{StreamID: WatermarkStreamID, Source: src, Records: telemetry.Batch{
			{Time: exWatermarkTime, WireSize: 17, Data: &wire.Watermark{Time: exWatermarkTime}},
		}}
	}
	switch e.kind {
	case exHello:
		h := &wire.Hello{Source: e.src, Seq: e.seq, Version: wire.CurrentWireVersion}
		if e.refused {
			h.Term = 1
		}
		return control(e.src, 29, h)
	case exData:
		return wire.Frame{StreamID: 0, Source: peer, Records: telemetry.Batch{
			telemetry.NewProbeRecord(&telemetry.PingProbe{Timestamp: 1_000_000, SrcIP: 1, DstIP: 2, RTTMicros: 50}),
		}}
	case exWatermark:
		return watermark(peer)
	case exEnd:
		return control(peer, 33, &wire.EpochEnd{Seq: e.seq, Watermark: int64(e.seq) * 1_000_000})
	case exStray:
		return control(peer, 33, &wire.ReplHello{Version: wire.CurrentWireVersion})
	default: // exForeign
		return watermark(7 - peer)
	}
}

// exObs is what a run leaves observable: the outcome of every
// connection, every ack written, the receiver's counters and sequence
// frontiers, the engine's source watermarks (-1: not registered) and
// the records it ingested.
type exObs struct {
	refused                             []bool
	acks                                [][3]uint64 // source, seq, replay (0/1)
	recvErrors, hellosRejected, resets  int64
	epochsApplied, epochsReplayed, gaps int64
	shed, ingested                      int64
	applied                             [2]uint64
	wm                                  [2]int64
}

func (o *exObs) String() string {
	return fmt.Sprintf("refused %v acks %v recv_errors %d hellos_rejected %d source_resets %d epochs_applied %d "+
		"epochs_replayed %d epoch_gaps %d epochs_shed %d ingested %d applied %v watermarks %v",
		o.refused, o.acks, o.recvErrors, o.hellosRejected, o.resets, o.epochsApplied,
		o.epochsReplayed, o.gaps, o.shed, o.ingested, o.applied, o.wm)
}

// exRun drives a fresh receiver through the events, one HandleConn
// session per connection, in memory.
func exRun(t *testing.T, evs []int, metered bool) *exObs {
	engine, err := stream.NewSPEngine(plan.S2SProbe())
	if err != nil {
		t.Fatal(err)
	}
	rc := NewReceiver(engine)
	rc.SetHelloGate(exGate{})
	if metered {
		// An unlimited budget: admission admits every epoch at once, so
		// only its sequencing rules differ from the unmetered receiver.
		rc.SetAdmission(admission.NewController(admission.Config{
			RateBytesPerSec: 1 << 40, BurstBytes: 1 << 40, MaxDelayedEpochs: 64,
			DegradeAfter: 1 << 30, PromoteAfter: 1 << 30, DegradeRate: 0.25, Now: time.Now,
		}))
	}
	o := &exObs{}
	var conn bytes.Buffer
	fw := wire.NewFrameWriter(&conn)
	serve := func() {
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
		var acks bytes.Buffer
		o.refused = append(o.refused, rc.HandleConn(rwConn{bytes.NewReader(conn.Bytes()), &acks}) != nil)
		conn.Reset()
		for fr := wire.NewFrameReader(&acks); ; {
			f, err := fr.ReadFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			a := f.Records[0].Data.(*wire.Ack)
			replay := uint64(0)
			if a.Replay {
				replay = 1
			}
			o.acks = append(o.acks, [3]uint64{uint64(a.Source), a.Seq, replay})
		}
	}
	peer := uint32(3)
	for _, i := range evs {
		e := exEvents[i]
		switch e.kind {
		case exReconnect:
			serve()
			peer = 3
			continue
		case exHello:
			peer = e.src
		}
		if err := fw.WriteFrame(exFrame(e, peer)); err != nil {
			t.Fatal(err)
		}
	}
	serve()
	c := rc.Counters()
	o.recvErrors, o.hellosRejected, o.resets = c.Get(CtrRecvErrors), c.Get(CtrHellosRejected), c.Get(CtrSourceResets)
	o.epochsApplied, o.epochsReplayed, o.gaps = c.Get(CtrEpochsApplied), c.Get(CtrEpochsReplayed), c.Get(CtrEpochGaps)
	o.shed, o.ingested = c.Get(CtrEpochsShed), engine.IngressRecords()
	o.applied = [2]uint64{rc.AppliedSeq(3), rc.AppliedSeq(4)}
	o.wm = [2]int64{-1, -1}
	engine.SourceWatermarks(func(src uint32, wm int64) {
		if src == 3 || src == 4 {
			o.wm[src-3] = wm
		} else {
			o.wm = [2]int64{-2, -2} // a source no Hello announced
		}
	})
	return o
}

// exModel is the reference the receiver is held to: the package doc's
// frame and commit rules, restated for this alphabet (no staging
// overflow, so no hole is ever the receiver's own) and an unlimited
// admission budget. Its fields are the state the rules read.
type exModel struct {
	applied [2]uint64
	gap     [2]uint64 // the lowest seq discarded at a hole, metered only
	wm      [2]int64  // -1: not registered
	// The live connection.
	dead, hello bool
	peer        uint32 // the source its frames name
	data        int64  // data records staged
	stagedWM    int64  // newest staged watermark frame
}

func newExModel() exModel { return exModel{wm: [2]int64{-1, -1}, peer: 3} }

// step applies one event to the model and records what it predicts the
// receiver shows.
func (m *exModel) step(e exEvent, o *exObs, metered bool) {
	if e.kind == exReconnect {
		o.refused = append(o.refused, m.dead)
		*m = exModel{applied: m.applied, gap: m.gap, wm: m.wm, peer: 3}
		return
	}
	if m.dead {
		return // the receiver closed the connection: nothing more is read
	}
	ack := func(src uint32, seq uint64, replay uint64) {
		o.acks = append(o.acks, [3]uint64{uint64(src), seq, replay})
	}
	i := m.peer - 3
	switch {
	case e.kind == exStray,
		m.hello && e.kind == exHello && e.src != m.peer,
		m.hello && e.kind == exForeign:
		m.dead = true
		o.recvErrors++
	case e.kind == exHello && e.refused:
		m.dead = true
		o.hellosRejected++
	case e.kind == exHello:
		i = e.src - 3
		m.hello, m.peer, m.data, m.stagedWM = true, e.src, 0, 0
		if m.wm[i] < 0 {
			m.wm[i] = 0
		}
		if e.seq == 0 && m.applied[i] > 0 {
			m.applied[i], m.gap[i] = 0, 0
			o.resets++
		}
		ack(e.src, m.applied[i], 0)
	case !m.hello:
		m.dead = true
		o.recvErrors++
	case e.kind == exData:
		m.data++
	case e.kind == exWatermark:
		m.stagedWM = exWatermarkTime
	default: // exEnd
		next := m.applied[i] + 1
		switch {
		case e.seq < next:
			o.epochsReplayed++
			ack(m.peer, m.applied[i], 0)
		case e.seq > next && metered && (m.gap[i] == 0 || e.seq < m.gap[i]):
			m.gap[i] = e.seq
			o.gaps++
			ack(m.peer, m.applied[i], 1)
		case e.seq > next && metered && e.seq > m.gap[i]:
			ack(m.peer, m.applied[i], 1)
		default: // next, or a jump: unmetered, or the gap's second sighting
			o.ingested += m.data
			m.wm[i] = max(m.wm[i], m.stagedWM, int64(e.seq)*1_000_000)
			m.applied[i], m.gap[i] = e.seq, 0
			o.epochsApplied++
			ack(m.peer, e.seq, 0)
		}
		m.data, m.stagedWM = 0, 0
	}
}

// exPredict runs the model over the events.
func exPredict(evs []int, metered bool) (exModel, *exObs) {
	m, o := newExModel(), &exObs{}
	for _, i := range evs {
		m.step(exEvents[i], o, metered)
	}
	o.refused = append(o.refused, m.dead)
	o.applied, o.wm = m.applied, m.wm
	return m, o
}

// exKey identifies an explored state: the model's state paired with the
// receiver's observable frontiers and watermarks.
type exKey struct {
	m       exModel
	applied [2]uint64
	wm      [2]int64
}

// TestSequencingExplore walks every sequence of up to exploreDepth peer
// events (two sources, seqs 1–3, data, watermark, EpochEnd, fresh and
// resuming Hellos, a Hello the gate refuses, a reconnect, a stray
// control frame and a foreign-source frame) breadth first. Each sequence
// runs on a fresh receiver through HandleConn over in-memory
// connections, with admission off and with admission on at an unlimited
// budget, and the receiver must show exactly what exModel predicts.
// Sequences that reach a (model state, receiver state) pair already seen
// are not extended.
func TestSequencingExplore(t *testing.T) {
	for _, metered := range []bool{false, true} {
		t.Run(fmt.Sprintf("admission=%v", metered), func(t *testing.T) {
			start := newExModel()
			seen := map[exKey]bool{{m: start, wm: start.wm}: true}
			frontier := [][]int{nil}
			states, runs, failures := 1, 0, 0
			for depth := 1; depth <= exploreDepth && len(frontier) > 0; depth++ {
				var next [][]int
				for _, prefix := range frontier {
					for i := range exEvents {
						evs := append(prefix[:len(prefix):len(prefix)], i)
						got := exRun(t, evs, metered)
						m, want := exPredict(evs, metered)
						runs++
						if g, w := got.String(), want.String(); g != w {
							if failures++; failures <= 8 {
								names := make([]string, len(evs))
								for k, j := range evs {
									names[k] = exEvents[j].name
								}
								t.Errorf("events %s\n got %s\nwant %s", strings.Join(names, " "), g, w)
							}
							continue
						}
						k := exKey{m: m, applied: got.applied, wm: got.wm}
						if !seen[k] {
							seen[k] = true
							states++
							next = append(next, evs)
						}
					}
				}
				frontier = next
			}
			t.Logf("depth %d: %d states, %d sequences run, %d failing", exploreDepth, states, runs, failures)
		})
	}
}
