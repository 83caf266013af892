// Package transport carries Jarvis traffic between data source agents
// and stream processors: length-prefixed frames of records (the Kryo
// substitute in internal/wire) over any byte stream, usually TCP.
//
// Per §V, each drained record must reach the SP-side replica of the
// operator its control proxy guards, and watermarks are replicated onto
// the drain paths so the SP can merge event-time progress across all of
// a source's streams. Frames therefore carry the SP-side stage id; a
// reserved stream id carries watermarks.
//
// There is one shipping discipline (fault tolerance, §IV-E): a
// DurableShipper opens with a Hello, numbers every epoch, and terminates
// it with an EpochEnd commit marker. The receiver stages a connection's
// frames until the marker, applies the epoch atomically exactly once
// (duplicates from replay are discarded whole), and acknowledges
// durability back to the agent so it can prune its bounded replay buffer.
// Both sides speak wire v4 (columnar data frames, optionally flate-
// compressed by the shipper).
//
// The receiver's connection rules are one pure step that HandleConn runs
// for every session (TCP, Flush, sim replay, ReplayTraffic); first match:
//
//	frame                                   before Hello   after Hello
//	control, not a lone Hello or EpochEnd   refuse         refuse
//	Hello below wire v4                     refuse         refuse
//	any frame naming another source         -              refuse
//	Hello                                   vet            vet
//	EpochEnd of an epoch being shed         refuse         shed
//	EpochEnd                                refuse         commit
//	row-form data or watermark              refuse         refuse
//	columnar, epoch being shed or too big   refuse         drop
//	columnar data or watermark              refuse         stage
//
// Vet asks the HelloGate (term fencing, standby). Its refusal counts
// hellos_rejected, any other refusal recv_errors, and the connection
// closes with nothing of it ingested. An admitted Hello registers its
// source (Seq 0, a fresh incarnation, resets the source's frontier) and
// acks the durable seq. An epoch is too big at maxStagedFrames frames:
// it is shed, its frames dropped and its EpochEnd answered with a
// replay request.
//
// The commit rules are a second pure step, decideCommit, over the
// source's sequencing record. next is the newest applied or parked seq
// plus one; the mark is the lowest seq discarded at a hole; a hole is
// the receiver's own while an epoch it shed (staging overflow, full
// delay queue) lies above the applied one. First match:
//
//	EpochEnd seq                               decision            ack
//	below next                                 duplicate           durable
//	above next, no admission, hole not own     jump                durable
//	above next, no mark or below the mark      gap, mark it        replay
//	above next, above the mark                 gap                 replay
//	above next, at the mark (second sighting)  jump                durable
//	at next, delay queue non-empty             park                durable
//	at next, no admission                      apply               durable
//	at next, admission                         ask; park or apply  durable
//
// A jump drains the delay queue by force and then commits as at next;
// it and any apply clear the mark. A durable ack names the durable
// frontier, which follows the applied one unless the recovery manager
// acks (SetManualAck: no durable acks here). A replay ack asks the
// shipper to resend everything above the durable frontier.
package transport

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"jarvis/internal/admission"
	"jarvis/internal/obs"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
)

// WatermarkStreamID tags frames that carry event-time progress instead
// of data records.
const WatermarkStreamID = ^uint32(0)

// Health counter names exposed through the obs.Registry of each
// Receiver, Server and DurableShipper (scrape them via the obs HTTP
// server's /metrics).
const (
	CtrConnsAccepted  = "conns_accepted"
	CtrConnsClosed    = "conns_closed"
	CtrRecvErrors     = "recv_errors"
	CtrFramesIn       = "frames_in"
	CtrEpochsApplied  = "epochs_applied"
	CtrEpochsReplayed = "epochs_replayed" // duplicate epochs discarded by seq dedup
	CtrAcksSent       = "acks_sent"
	CtrEpochsDropped  = "epochs_dropped" // unacked epochs evicted from a full replay buffer
	CtrReconnects     = "reconnects"
	CtrConnErrors     = "conn_errors"     // connections that ended with a transport error
	CtrSourceResets   = "source_resets"   // fresh agent incarnations that reset a dedup frontier
	CtrHellosRejected = "hellos_rejected" // sequenced hellos refused by the hello gate (fencing/standby)
	CtrFailovers      = "failovers"       // ConnectAny attaching to a different endpoint than before

	// Overload-protection accounting. epochs_shed mirrors the admission
	// controller's counter on the receiver registry (it also counts sheds
	// on receivers running without a controller); epoch_gaps counts
	// sequence holes detected after a shed, each answered with a
	// replay-request ack. Shipper side, replay_requests counts replay
	// asks honored and dial_backoffs counts reconnect attempts suppressed
	// or deferred by the jittered exponential dial backoff.
	CtrEpochsShed     = "epochs_shed"
	CtrEpochGaps      = "epoch_gaps"
	CtrReplayRequests = "replay_requests"
	CtrDialBackoffs   = "dial_backoffs"

	// Wire-compression accounting (receiver side, columnar data frames):
	// payload bytes as carried on the wire vs. after inflation, and
	// their ratio as a float gauge.
	CtrWireBytesIn            = "wire_bytes_in"
	CtrWireRawBytesIn         = "wire_raw_bytes_in"
	GaugeWireCompressionRatio = "wire_compression_ratio"
)

// maxStagedFrames bounds one connection's frames between EpochEnd
// markers, protecting the SP from a peer that never commits. Overflow
// sheds the epoch instead of closing the connection; it is still in the
// agent's replay buffer, so the replay it is asked for loses nothing.
const maxStagedFrames = 1 << 16

// HelloGate vets sequenced Hellos before a receiver admits them — the
// hook the HA subsystem uses for role and fencing checks. AdmitHello is
// called with the term the agent announced; it returns the term to
// advertise in the ack, or an error to reject the connection (the
// receiver closes it, and a stale primary learns it has been superseded).
// Implementations must be safe for concurrent use.
type HelloGate interface {
	AdmitHello(agentTerm uint64) (ackTerm uint64, err error)
}

// Receiver feeds frames from source connections into a shared SP engine.
// It is safe for concurrent use by one goroutine per connection.
type Receiver struct {
	mu       sync.Mutex
	engine   *stream.SPEngine
	counters *obs.Registry

	// Wire-level compression accounting, aggregated across connections:
	// columnar payload bytes as carried on the wire vs. after inflation,
	// and the derived wire_compression_ratio gauge (raw/wire).
	ctrWireBytes obs.Counter
	ctrRawBytes  obs.Counter
	compRatio    obs.FloatGauge

	// Sequencing: one record per source, the ack mode, the hello gate
	// and the admission controller (nil disables overload protection).
	// delayedN is the delay-queue total across sources, bounded by the
	// controller's MaxDelayed.
	seqs      map[uint32]*seqRecord
	delayedN  int
	manualAck bool
	gate      HelloGate
	admit     *admission.Controller

	// Frame recorder: stream capture and/or anomaly rings (nil = unarmed).
	traffic *TrafficRecorder

	bytesIn atomic.Int64
}

// seqRecord is one source's sequencing record: what decideCommit rules
// on, plus the source's live connection's ack writer.
type seqRecord struct {
	applied uint64          // newest epoch applied
	durable uint64          // newest epoch acknowledged durable
	gap     uint64          // the mark: lowest seq discarded at a hole (0: none)
	shed    uint64          // newest epoch this receiver shed itself
	delayed []*delayedEpoch // parked epochs in seq order, row-materialized
	aw      *ackWriter
}

// delayedEpoch is one over-budget epoch parked in the receiver's delay
// queue: its commit marker plus row-materialized frames (safe to hold
// past arena recycling) and arrival time for queueing-latency metrics.
type delayedEpoch struct {
	seq       uint64
	watermark int64
	bytes     int64
	arrival   time.Time
	frames    []wire.Frame
}

// ackTarget is one ack to send after the receiver's mutex is released
// (acks are cumulative per source, so one per touched source suffices).
type ackTarget struct {
	aw     *ackWriter
	src    uint32
	seq    uint64
	replay bool
}

// NewReceiver wraps an SP engine.
func NewReceiver(engine *stream.SPEngine) *Receiver {
	reg := obs.NewRegistry()
	return &Receiver{
		engine:       engine,
		counters:     reg,
		ctrWireBytes: reg.Counter(CtrWireBytesIn),
		ctrRawBytes:  reg.Counter(CtrWireRawBytesIn),
		compRatio:    reg.FloatGauge(GaugeWireCompressionRatio),
		seqs:         make(map[uint32]*seqRecord),
	}
}

// record returns a source's sequencing record, creating it on first use.
// Call with rc.mu held.
func (rc *Receiver) record(src uint32) *seqRecord {
	r := rc.seqs[src]
	if r == nil {
		r = &seqRecord{}
		rc.seqs[src] = r
	}
	return r
}

// SetAdmission installs an admission controller on the receiver's
// sequenced path: each epoch commit is admitted, delayed (queued and
// drained as its tenant's budget refills), degraded to sampled
// ingestion, or shed. Nil (the default) admits everything immediately.
// Call before serving connections.
func (rc *Receiver) SetAdmission(ctrl *admission.Controller) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.admit = ctrl
	if ctrl != nil {
		// The degrader maps raw event times to window ids when it records
		// sampled windows; that mapping must use the deployed query's
		// window, not the 1 s default, or rescaling looks up wrong ids.
		if wd := rc.engine.WindowDur(); wd > 0 {
			ctrl.Degrader().SetWindowMicros(wd)
		}
	}
}

// Admission returns the installed admission controller (nil when
// overload protection is off).
func (rc *Receiver) Admission() *admission.Controller {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.admit
}

// throttleFor computes the backpressure hint to piggyback on a source's
// acks (0 without a controller or for a healthy tenant).
func (rc *Receiver) throttleFor(src uint32) uint64 {
	if ctrl := rc.Admission(); ctrl != nil {
		return ctrl.ThrottleMicros(src)
	}
	return 0
}

// SetTrafficRecorder arms frame capture: every frame of every connection
// is handed to the recorder, which streams it to a capture file and/or
// keeps it in a bounded ring dumped on shed/degrade/failover/fencing
// events (see traffic.go). Call before serving connections; nil disarms.
func (rc *Receiver) SetTrafficRecorder(t *TrafficRecorder) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.traffic = t
}

// Counters exposes the receiver's health counters (shared with the
// Server wrapping it).
func (rc *Receiver) Counters() *obs.Registry { return rc.counters }

// MaxVersion returns the wire version the receiver advertises in acks.
func (rc *Receiver) MaxVersion() uint32 { return wire.CurrentWireVersion }

// SetHelloGate installs a hello gate (HA role/fencing checks). Call
// before serving connections; a nil gate admits every hello with term 0.
func (rc *Receiver) SetHelloGate(g HelloGate) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.gate = g
}

// SetManualAck switches acknowledgement to the recovery manager: epochs
// are acked only after a durable snapshot covers them (AckSeqs), instead
// of immediately on application. Call before serving connections.
func (rc *Receiver) SetManualAck(v bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.manualAck = v
}

// ackWriter serializes control-frame writes on one connection (epoch
// handling and recovery-manager acks run on different goroutines).
type ackWriter struct {
	mu   sync.Mutex
	fw   *wire.FrameWriter
	term uint64 // primary term advertised in this connection's acks
}

func (w *ackWriter) sendAck(source uint32, seq uint64, throttleMicros uint64, replay bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	// Every FrameReader inflates compressed frames transparently, so the
	// receiver always advertises compression support.
	rec := telemetry.Record{WireSize: 29, Data: &wire.Ack{
		Source: source, Seq: seq, Version: wire.CurrentWireVersion, Term: w.term, Compress: true,
		ThrottleMicros: throttleMicros, Replay: replay,
	}}
	if err := w.fw.WriteFrame(wire.Frame{StreamID: wire.ControlStreamID, Source: source, Records: telemetry.Batch{rec}}); err != nil {
		return err
	}
	return w.fw.Flush()
}

// connState is what one connection has established: whether a Hello
// was admitted on it, the source that Hello announced, and how far the
// epoch in flight has staged.
type connState struct {
	src      uint32
	hello    bool
	staged   int  // frames staged toward the next EpochEnd
	shedding bool // the epoch overflowed maxStagedFrames: shed it whole
}

type actionKind uint8

const (
	actRefuse actionKind = iota // close the connection: count ctr, return err
	actVet                      // ask the HelloGate, then step again with its verdict
	actAdmit                    // register the Hello's source and ack its durable seq
	actCommit                   // commit the staged epoch at its EpochEnd
	actShed                     // shed the epoch at its EpochEnd: discard it, ask for a replay
	actStage                    // stage the data or watermark frame
	actDrop                     // drop what is staged and the frame: the epoch is being shed
)

// action is the one thing a step asks HandleConn to do.
type action struct {
	kind  actionKind
	fresh bool   // actAdmit: Hello Seq 0, a new incarnation restarting at 1
	ctr   string // actRefuse: the counter the refusal counts
	err   error  // actRefuse
}

func refuse(format string, args ...any) action {
	return action{kind: actRefuse, ctr: CtrRecvErrors, err: fmt.Errorf("transport: "+format, args...)}
}

// step is the connection's handshake and staging: the frame rule table
// of the package doc, first match wins. vetted reports whether the
// HelloGate has ruled on the frame's Hello, and gateErr is its refusal.
// step does no I/O and reads no clock, lock or shared state.
func step(st connState, f *wire.Frame, vetted bool, gateErr error) (connState, action) {
	var rec any
	if f.StreamID == wire.ControlStreamID && len(f.Records) == 1 {
		rec = f.Records[0].Data
	}
	h, hello := rec.(*wire.Hello)
	_, end := rec.(*wire.EpochEnd)
	switch {
	case f.StreamID == wire.ControlStreamID && !hello && !end:
		return st, refuse("control frame of %d records (%T) is not a lone Hello or EpochEnd", len(f.Records), rec)
	case hello && h.Version < wire.WireV4:
		// Older builds' integer and float columns are unreadable here:
		// admitting one defers the failure, or decodes v3 floats wrong.
		return st, refuse("hello announces wire v%d, need v%d or newer", h.Version, wire.WireV4)
	case st.hello && f.Source != st.src:
		// A peer ships only its own source: another source's watermark
		// would pin that source's progress, and with it every window.
		return st, refuse("frame for source %d on source %d's connection", f.Source, st.src)
	case hello && !vetted:
		return st, action{kind: actVet}
	case hello && gateErr != nil:
		// Fencing (the agent carries a newer primary's term) or a standby
		// not yet promoted: closing without an ack sends the agent to its
		// next endpoint.
		return st, action{kind: actRefuse, ctr: CtrHellosRejected, err: fmt.Errorf("transport: hello rejected: %w", gateErr)}
	case hello:
		return connState{src: h.Source, hello: true}, action{kind: actAdmit, fresh: h.Seq == 0}
	case !st.hello:
		// The hello gate (standby, fencing), admission and sequence dedup
		// have not vetted this peer, so nothing it sends may reach the engine.
		return st, refuse("frame for stream %d before hello", f.StreamID)
	case end && st.shedding:
		return connState{src: st.src, hello: true}, action{kind: actShed}
	case end:
		return connState{src: st.src, hello: true}, action{kind: actCommit}
	case f.Cols == nil:
		return st, refuse("row-form frame for stream %d; wire v4 data frames are columnar", f.StreamID)
	case st.shedding || st.staged >= maxStagedFrames:
		// Metered shedding instead of a connection-fatal error: drop what
		// is staged and the rest of the epoch, and have the shipper
		// replay it after its EpochEnd.
		return connState{src: st.src, hello: true, shedding: true}, action{kind: actDrop}
	}
	st.staged++
	return st, action{kind: actStage}
}

// HandleConn consumes frames from conn until EOF: it passes each frame to
// step and performs the action returned. Epochs apply atomically, exactly
// once, at their EpochEnd, and acks flow back on the same connection.
func (rc *Receiver) HandleConn(conn io.ReadWriter) error {
	fr := wire.NewFrameReader(conn)
	// Data frames decode straight into pooled SoA arenas for
	// SPEngine.IngestColumnar; they are recycled at each consumption point
	// below, once nothing references the columns.
	fr.EnableArenaPooling()
	var (
		st        connState
		aw        *ackWriter
		staged    []wire.Frame
		decAccum  time.Duration // frame-decode time since the last EpochEnd (trace context)
		lastStats wire.FrameStats
	)
	discard := func() { staged = staged[:0]; fr.RecycleArenas() }
	rc.mu.Lock() // the gate and the recorder are installed before serving
	gate, traffic := rc.gate, rc.traffic
	rc.mu.Unlock()
	tap := traffic.newTap()
	defer tap.close()
	defer func() {
		if st.hello {
			rc.dropWriter(st.src, aw)
		}
	}()
	for {
		decStart := obs.Now()
		f, err := fr.ReadFrame()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return rc.refuse(refuse("read frame: %w", err))
		}
		decAccum += obs.ObserveSince(obs.StageDecode, decStart)
		tap.capture(fr.RawFrame())
		if fs := fr.Stats(); fs != lastStats {
			rc.ctrWireBytes.Add(fs.WireBytes - lastStats.WireBytes)
			rc.ctrRawBytes.Add(fs.RawBytes - lastStats.RawBytes)
			lastStats = fs
			if w := rc.ctrWireBytes.Value(); w > 0 {
				rc.compRatio.Set(float64(rc.ctrRawBytes.Value()) / float64(w))
			}
		}
		rc.noteFrame(&f)

		prev := st
		var (
			act     action
			ackTerm uint64
		)
		if st, act = step(prev, &f, false, nil); act.kind == actVet {
			var gateErr error
			if gate != nil {
				ackTerm, gateErr = gate.AdmitHello(f.Records[0].Data.(*wire.Hello).Term)
			}
			st, act = step(prev, &f, true, gateErr)
		}
		switch act.kind {
		case actRefuse:
			return rc.refuse(act)
		case actAdmit:
			c := f.Records[0].Data.(*wire.Hello)
			if prev.hello {
				rc.dropWriter(prev.src, aw)
			}
			tap.pinHello(fr.RawFrame())
			discard() // frames staged before this Hello are dropped whole
			if ctrl := rc.Admission(); ctrl != nil {
				ctrl.Register(st.src, c.Tenant, admission.ClassFromWire(c.Class))
			}
			aw = &ackWriter{fw: wire.NewFrameWriter(conn), term: ackTerm}
			seq := rc.registerConn(st.src, act.fresh, aw)
			if err := aw.sendAck(st.src, seq, rc.throttleFor(st.src), false); err != nil {
				return rc.refuse(refuse("hello ack: %w", err))
			}
			rc.counters.Inc(CtrAcksSent)
		case actCommit, actShed:
			c := f.Records[0].Data.(*wire.EpochEnd)
			tap.noteEpoch()
			if c.TraceID != 0 {
				// Join the agent's half of the epoch trace with the SP-side
				// arrival and decode time. A shed epoch's entry stays
				// in-flight, so its replayed copy is marked as such.
				obs.Traces().Begin(obs.EpochTrace{
					TraceID:       c.TraceID,
					Source:        st.src,
					Epoch:         c.Seq,
					StartMicros:   c.StartMicros,
					GenMicros:     int64(c.GenMicros),
					PipeMicros:    int64(c.PipeMicros),
					EncMicros:     int64(c.EncMicros),
					SentMicros:    c.SentMicros,
					ArrivalMicros: time.Now().UnixMicro(),
					DecodeMicros:  decAccum.Microseconds(),
				})
			}
			decAccum = 0
			var targets []ackTarget
			if act.kind == actShed {
				rc.mu.Lock()
				targets = rc.shedLocked(nil, st.src, aw, c.Seq, "staged_overflow", false)
				rc.mu.Unlock()
			} else {
				targets, err = rc.commitEpoch(st.src, c, staged, aw)
			}
			// The engine copied everything it keeps (delayed epochs are
			// row-materialized), so the staged frames' arenas are free.
			discard()
			if err != nil {
				return err
			}
			rc.sendAcks(targets)
		case actStage:
			staged = append(staged, f)
		case actDrop:
			discard()
		}
	}
}

// refuse ends a connection on a refusal action: it counts the refusal
// and returns its error.
func (rc *Receiver) refuse(a action) error {
	rc.counters.Inc(a.ctr)
	return a.err
}

// noteFrame counts an arrived frame. Its payload bytes are summed here,
// once, into the frame: admission and the engine's ingress accounting
// read the sum off the staged frame.
func (rc *Receiver) noteFrame(f *wire.Frame) {
	f.Bytes = f.PayloadBytes()
	rc.bytesIn.Add(f.Bytes)
	rc.counters.Inc(CtrFramesIn)
}

// registerConn records the connection serving a source and returns the
// sequence number to ack in the Hello reply (newest durable epoch). A
// fresh incarnation (Hello Seq 0: an agent restarted without a
// checkpoint dir) numbers from 1 again, so its dedup frontier resets or
// everything it ships would be discarded; the old incarnation's epochs
// stay applied, so across incarnations delivery is at-least-once.
func (rc *Receiver) registerConn(src uint32, fresh bool, aw *ackWriter) uint64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.engine.RegisterSource(src)
	r := rc.record(src)
	if fresh && r.applied > 0 {
		// The marks and the delay queue belong to the dead sequence space.
		// A resumed hello (Seq > 0) keeps them, so a hole that survives a
		// full replay escapes on its second sighting on any connection.
		rc.counters.Inc(CtrSourceResets)
		for _, ep := range r.delayed {
			rc.delayedN--
			rc.shedLocked(nil, src, nil, ep.seq, "source_reset", true)
		}
		*r = seqRecord{}
	}
	r.aw = aw
	return r.durable
}

func (rc *Receiver) dropWriter(src uint32, aw *ackWriter) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if r := rc.seqs[src]; r != nil && r.aw == aw {
		r.aw = nil
	}
}

type commitKind uint8

const (
	cmDuplicate commitKind = iota // at or below the applied or parked frontier: discard
	cmGap                         // a hole below it: discard, ask for a replay
	cmAsk                         // ask admission, then decide again with its verdict
	cmPark                        // park in the delay queue
	cmApply                       // apply now
)

type ackKind uint8

const (
	ackNone    ackKind = iota
	ackDurable         // the source's durable frontier
	ackReplay          // the durable frontier, asking the shipper to resend above it
)

// ruling is what decideCommit rules for one epoch.
type ruling struct {
	kind     commitKind
	ack      ackKind
	gap      uint64 // the gap mark to keep
	jump     bool   // accept the jump: force-drain the delay queue first
	degraded bool   // cmApply: sample the epoch's raw records
}

// progressAck is the ack an epoch that needs no replay earns: the
// durable frontier, or nothing while the recovery manager acks.
func progressAck(manualAck bool) ackKind {
	if manualAck {
		return ackNone
	}
	return ackDurable
}

// decideCommit is the commit rule table of the package doc: what to do
// with epoch seq given a copy of its source's record. metered reports an
// admission controller; then an epoch that reaches admission first rules
// cmAsk, and a second call with asked set rules on the verdict v. Like
// step, it does no I/O and reads no clock, lock or shared state.
func decideCommit(r seqRecord, seq uint64, metered, manualAck, asked bool, v admission.Verdict) ruling {
	var parked uint64
	if n := len(r.delayed); n > 0 {
		parked = r.delayed[n-1].seq
	}
	next := max(r.applied, parked) + 1
	healing := metered || r.shed > r.applied // a hole may be the receiver's own
	switch {
	case seq < next:
		return ruling{kind: cmDuplicate, ack: progressAck(manualAck), gap: r.gap}
	case seq > next && healing && (r.gap == 0 || seq < r.gap):
		// A hole below this epoch (a shed, or replay-buffer eviction on
		// the agent), first sighting: discard it and ask for a replay.
		return ruling{kind: cmGap, ack: ackReplay, gap: seq}
	case seq > next && healing && seq > r.gap:
		// Above the mark: one replay re-ships them all, and moving the mark
		// would let two buffered epochs alternate it and defeat the escape.
		return ruling{kind: cmGap, ack: ackReplay, gap: r.gap}
	}
	// At next, or a jump: the mark's second sighting, or (no admission)
	// a hole this receiver did not cause.
	c := ruling{ack: progressAck(manualAck), jump: seq > next}
	switch {
	case !c.jump && parked > 0:
		// Per-source order: behind a non-empty queue the epoch parks (its
		// budget could not admit it anyway: the head exhausted the bucket).
		c.kind = cmPark
	case !metered:
		c.kind = cmApply
	case !asked:
		c.kind = cmAsk
	case v == admission.Delayed:
		c.kind = cmPark
	default:
		c.kind, c.degraded = cmApply, v == admission.AdmittedDegraded
	}
	return c
}

// commitEpoch performs decideCommit's ruling on one staged epoch, so it
// applies atomically and exactly once. It returns the acks to send once
// the receiver's mutex is released.
func (rc *Receiver) commitEpoch(src uint32, e *wire.EpochEnd, staged []wire.Frame, aw *ackWriter) ([]ackTarget, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	// Budgets refill with time: drain whatever they now afford first, for
	// every source — a source's delayed epochs must apply before anything
	// newer of its own, and other sources' drains ride along on this
	// commit's lock acquisition.
	targets := rc.drainDelayedLocked()
	r := rc.record(src)
	prev := *r
	c := decideCommit(prev, e.Seq, rc.admit != nil, rc.manualAck, false, 0)
	if c.jump {
		targets = rc.drainLocked(src, true, targets)
	}
	asked := c.kind == cmAsk
	if asked {
		c = decideCommit(prev, e.Seq, true, rc.manualAck, true, rc.admit.Admit(src, framesBytes(staged)))
	}
	if c.gap != r.gap && c.kind == cmGap {
		rc.counters.Inc(CtrEpochGaps)
	}
	r.gap = c.gap
	switch c.kind {
	case cmDuplicate:
		rc.counters.Inc(CtrEpochsReplayed)
		if e.Seq <= prev.applied {
			// Its trace entry, begun at EpochEnd, will never be ingested (a
			// parked duplicate's entry is the parked epoch's own).
			obs.Traces().Drop(src, e.Seq)
		}
	case cmPark:
		rc.queueDelayedLocked(r, e, staged)
		if !asked {
			// Keeps the degrade hysteresis moving though no verdict is taken.
			rc.admit.NoteBacklog(src, framesBytes(staged))
		}
		rc.admit.NoteDelayed(src)
		targets = rc.shedOverflowLocked(targets)
	case cmApply:
		if err := rc.applyEpochLocked(src, e.Seq, e.Watermark, staged, c.degraded); err != nil {
			return targets, err
		}
		if rc.admit != nil {
			rc.admit.ObserveCommitLatency(src, 0)
		}
	}
	return rc.ackLocked(targets, src, aw, c.ack), nil
}

// applyEpochLocked ingests one epoch's frames and advances the applied
// frontier, and with it the durable one unless the recovery manager
// acks. Degraded commits row-materialize each data frame and sample
// the tenant's raw records through the controller's degrader before
// ingestion (partial aggregates and watermarks always pass exact).
func (rc *Receiver) applyEpochLocked(src uint32, seq uint64, watermark int64, frames []wire.Frame, degraded bool) error {
	// Trace context: commit begins now — for delayed epochs this stamp is
	// after the delay-queue wait, so arrival→apply is the wait segment.
	obs.Traces().MarkApply(src, seq, time.Now().UnixMicro())
	var (
		deg    *admission.Degrader
		tenant string
	)
	if degraded && rc.admit != nil {
		deg = rc.admit.Degrader()
		tenant = rc.admit.Tenant(src)
	}
	for _, f := range frames {
		if f.StreamID == WatermarkStreamID {
			// Columnar watermark sections materialize at decode, so their
			// records sit in the batch's row fallbacks.
			for si := range f.Cols.Secs {
				for _, rec := range f.Cols.Secs[si].Rows {
					if wm, ok := rec.Data.(*wire.Watermark); ok {
						rc.engine.ObserveWatermark(src, wm.Time)
					}
				}
			}
			continue
		}
		if deg != nil {
			rows := deg.SampleBatch(tenant, frameRows(f))
			if err := rc.engine.Ingest(int(f.StreamID), rows); err != nil {
				rc.counters.Inc(CtrRecvErrors)
				return fmt.Errorf("transport: apply epoch %d: %w", seq, err)
			}
			continue
		}
		if err := rc.engine.IngestSized(int(f.StreamID), f.Cols, f.PayloadBytes()); err != nil {
			rc.counters.Inc(CtrRecvErrors)
			return fmt.Errorf("transport: apply epoch %d: %w", seq, err)
		}
	}
	rc.engine.ObserveWatermark(src, watermark)
	r := rc.record(src)
	r.applied = seq
	if !rc.manualAck {
		r.durable = seq
	}
	rc.counters.Inc(CtrEpochsApplied)
	obs.Traces().MarkDone(src, seq, time.Now().UnixMicro())
	return nil
}

// frameRows materializes a frame's records as rows that own their
// memory (AppendRows allocates fresh payload arenas), so the result is
// safe to hold past RecycleArenas.
func frameRows(f wire.Frame) telemetry.Batch {
	var rows telemetry.Batch
	f.Cols.AppendRows(&rows)
	return rows
}

// framesBytes sums an epoch's payload bytes (the unit the admission
// buckets meter).
func framesBytes(frames []wire.Frame) int64 {
	var n int64
	for _, f := range frames {
		n += f.PayloadBytes()
	}
	return n
}

// ackLocked folds an ack of the source's durable frontier into targets,
// replacing an earlier entry for the source (acks are cumulative; the
// newest frontier and any replay request win). ackNone, or a source
// without a live connection, adds nothing.
func (rc *Receiver) ackLocked(targets []ackTarget, src uint32, aw *ackWriter, k ackKind) []ackTarget {
	if k == ackNone || aw == nil {
		return targets
	}
	t := ackTarget{aw: aw, src: src, seq: rc.record(src).durable, replay: k == ackReplay}
	for i := range targets {
		if targets[i].src == src {
			targets[i].seq = t.seq
			targets[i].replay = targets[i].replay || t.replay
			return targets
		}
	}
	return append(targets, t)
}

// queueDelayedLocked parks one epoch in the source's delay queue,
// row-materializing each frame into one Rows section so nothing
// references the connection's decode arenas.
func (rc *Receiver) queueDelayedLocked(r *seqRecord, e *wire.EpochEnd, staged []wire.Frame) {
	mat := make([]wire.Frame, 0, len(staged))
	for _, f := range staged {
		rows := &wire.ColumnarBatch{Secs: []wire.ColSec{{Rows: frameRows(f)}}}
		mat = append(mat, wire.Frame{StreamID: f.StreamID, Source: f.Source, Cols: rows, Bytes: f.Bytes})
	}
	r.delayed = append(r.delayed, &delayedEpoch{
		seq: e.Seq, watermark: e.Watermark, bytes: framesBytes(staged),
		arrival: rc.admit.Now(), frames: mat,
	})
	rc.delayedN++
}

// drainDelayedLocked applies every delayed epoch the refilled buckets
// now afford, visiting sources in class-priority order (gold first) so
// scarce budget lands on the highest SLO class. Returns acks for every
// source whose durable frontier advanced.
func (rc *Receiver) drainDelayedLocked() []ackTarget {
	if rc.admit == nil || rc.delayedN == 0 {
		return nil
	}
	var srcs []uint32
	for src, r := range rc.seqs {
		if len(r.delayed) > 0 {
			srcs = append(srcs, src)
		}
	}
	sort.Slice(srcs, func(i, j int) bool {
		ci, cj := rc.admit.Class(srcs[i]), rc.admit.Class(srcs[j])
		if ci != cj {
			return ci > cj
		}
		return srcs[i] < srcs[j]
	})
	var targets []ackTarget
	for _, src := range srcs {
		targets = rc.drainLocked(src, false, targets)
	}
	return targets
}

// drainLocked applies a source's delayed epochs in order while its
// bucket affords them, or all of them when force (bucket debt instead of
// data loss: the escape when a hole above the queue proved unfillable),
// observing each one's queueing latency, and acks the advanced frontier.
func (rc *Receiver) drainLocked(src uint32, force bool, targets []ackTarget) []ackTarget {
	r := rc.record(src)
	drained := false
	for len(r.delayed) > 0 {
		ep := r.delayed[0]
		if force {
			rc.admit.ForceDrain(src, ep.bytes)
		} else if !rc.admit.TryDrain(src, ep.bytes) {
			break
		}
		r.delayed = r.delayed[1:]
		rc.delayedN--
		if err := rc.applyEpochLocked(src, ep.seq, ep.watermark, ep.frames, rc.admit.DegradedRate(src) > 0); err != nil {
			// The engine rejected the epoch (poisoned payload): it is
			// consumed, not re-queued — the error already counted.
			continue
		}
		rc.admit.NoteDrained(src)
		rc.admit.ObserveCommitLatency(src, rc.admit.Now().Sub(ep.arrival))
		drained = true
	}
	if len(r.delayed) == 0 {
		r.delayed = nil
	}
	if drained {
		targets = rc.ackLocked(targets, src, r.aw, progressAck(rc.manualAck))
	}
	return targets
}

// shedOverflowLocked enforces the global delay-queue bound: while over
// it, the newest delayed epoch of the lowest-class source is shed. The
// shed epoch's sequence hole is healed later by gap detection — the
// epoch is still unacked in its agent's replay buffer.
func (rc *Receiver) shedOverflowLocked(targets []ackTarget) []ackTarget {
	for rc.delayedN > rc.admit.MaxDelayed() {
		var victim uint32
		var vr *seqRecord
		var victimClass admission.Class
		for src, r := range rc.seqs {
			if len(r.delayed) == 0 {
				continue
			}
			c := rc.admit.Class(src)
			if vr == nil || c < victimClass || (c == victimClass && src < victim) {
				victim, vr, victimClass = src, r, c
			}
		}
		if vr == nil {
			return targets
		}
		ep := vr.delayed[len(vr.delayed)-1]
		vr.delayed = vr.delayed[:len(vr.delayed)-1]
		rc.delayedN--
		targets = rc.shedLocked(targets, victim, vr.aw, ep.seq, "delay_queue_full", true)
	}
	return targets
}

// shedLocked sheds one of a source's epochs: it is metered (on the
// controller's decision trace, or straight to the flight recorder
// without one), marked as a hole of the receiver's own, and answered
// with a replay request.
func (rc *Receiver) shedLocked(targets []ackTarget, src uint32, aw *ackWriter, seq uint64, cause string, fromQueue bool) []ackTarget {
	r := rc.record(src)
	r.shed = max(r.shed, seq)
	rc.counters.Inc(CtrEpochsShed)
	if rc.admit != nil {
		rc.admit.NoteShed(src, seq, cause, fromQueue)
	} else if rc.traffic != nil {
		rc.traffic.trigger("shed:"+cause, true)
	}
	return rc.ackLocked(targets, src, aw, ackReplay)
}

// sendAcks writes the acks a commit produced, outside the receiver's
// mutex, throttling hints computed at send time.
func (rc *Receiver) sendAcks(targets []ackTarget) {
	for _, t := range targets {
		if err := t.aw.sendAck(t.src, t.seq, rc.throttleFor(t.src), t.replay); err == nil {
			rc.counters.Inc(CtrAcksSent)
			// Acks are cumulative: every traced epoch at or below the acked
			// frontier is complete now.
			obs.Traces().FinishUpTo(t.src, t.seq, time.Now().UnixMicro())
		}
	}
}

// RegisterSource pre-registers a source so watermark merging waits for
// it (call before the source's first frame).
func (rc *Receiver) RegisterSource(id uint32) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.engine.RegisterSource(id)
}

// AppliedSeq returns the newest epoch sequence applied for a source
// (zero before its first sequenced epoch).
func (rc *Receiver) AppliedSeq(source uint32) uint64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.record(source).applied
}

// SetApplied restores a source's applied (and durable) epoch sequence
// from a recovered snapshot; epochs at or below it will be discarded as
// duplicates.
func (rc *Receiver) SetApplied(source uint32, seq uint64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	r := rc.record(source)
	r.applied = max(r.applied, seq)
	r.durable = max(r.durable, seq)
}

// Freeze runs f while epoch application is paused, passing a copy of the
// per-source applied sequences (sources that have applied an epoch). The
// recovery manager snapshots the engine inside f so the captured state
// and sequence numbers are mutually consistent.
func (rc *Receiver) Freeze(f func(applied map[uint32]uint64)) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	cp := make(map[uint32]uint64, len(rc.seqs))
	for src, r := range rc.seqs {
		if r.applied > 0 {
			cp[src] = r.applied
		}
	}
	f(cp)
}

// AckSeqs marks the given per-source epochs durable and acknowledges
// them on each source's live connection (recovery-manager mode; pair
// with SetManualAck(true)).
func (rc *Receiver) AckSeqs(seqs map[uint32]uint64) {
	var targets []ackTarget
	rc.mu.Lock()
	for src, seq := range seqs {
		r := rc.record(src)
		r.durable = max(r.durable, seq)
		targets = rc.ackLocked(targets, src, r.aw, ackDurable)
	}
	rc.mu.Unlock()
	rc.sendAcks(targets)
}

// Advance flushes the engine up to the merged watermark and returns new
// final results. With admission control installed it first drains every
// delayed epoch the refilled budgets afford (time passes between
// commits, so Advance is the other natural drain point) and rescales
// results whose windows were ingested under degraded sampling back to
// estimated exact magnitudes.
func (rc *Receiver) Advance() telemetry.Batch {
	rc.mu.Lock()
	targets := rc.drainDelayedLocked()
	batch := rc.engine.Advance()
	ctrl := rc.admit
	rc.mu.Unlock()
	rc.sendAcks(targets)
	if ctrl != nil {
		ctrl.Degrader().Rescale(batch)
	}
	return batch
}

// BytesIn returns payload bytes received.
func (rc *Receiver) BytesIn() int64 { return rc.bytesIn.Load() }

// Frames returns the number of frames received.
func (rc *Receiver) Frames() int64 { return rc.counters.Get(CtrFramesIn) }
