package transport

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"jarvis/internal/admission"
	"jarvis/internal/obs"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
)

// DefaultMaxPending bounds the replay buffer: with the default 1 s
// epochs it rides out about a minute of SP downtime or ack lag before
// the oldest unacked epoch must be evicted.
const DefaultMaxPending = 64

// PendingEpoch is one fully encoded, not-yet-durable epoch in a
// DurableShipper's replay buffer.
type PendingEpoch struct {
	Seq  uint64
	Data []byte
}

// clonePending deep-copies a pending slice so snapshots and restores
// never alias the shipper's live buffer.
func clonePending(in []PendingEpoch) []PendingEpoch {
	out := make([]PendingEpoch, len(in))
	for i, p := range in {
		out[i] = PendingEpoch{Seq: p.Seq, Data: append([]byte(nil), p.Data...)}
	}
	return out
}

// DurableShipper ships a source pipeline's epochs to the SP: it numbers
// every epoch, keeps each one in a bounded replay buffer until
// the SP acknowledges it durable, and on (re)connect performs the
// Hello/Ack handshake and replays everything after the SP's durable
// frontier. Together with the receiver's sequence dedup this applies
// every epoch exactly once across agent and SP restarts.
//
// Shipping never fails on a broken connection — epochs are buffered and
// the shipper reports Connected() == false until the caller reconnects.
// All methods are safe for concurrent use.
type DurableShipper struct {
	source   uint32
	max      int
	counters *obs.Registry

	mu      sync.Mutex // guards all state below
	wmu     sync.Mutex // serializes writes to conn (never held with mu)
	conn    io.WriteCloser
	peerVer uint32 // wire version negotiated with the current connection
	seq     uint64 // last assigned epoch sequence
	acked   uint64 // newest sequence the SP reported durable
	term    uint64 // newest primary term observed in acks (fencing token)
	prefer  string // last successfully connected endpoint (ConnectAny)
	pending []PendingEpoch
	dropped int64

	compress bool // encode columnar data frames flate-compressed

	// Admission identity announced in hellos, and the newest backpressure
	// hint the SP's acks carried (µs the agent should stretch its epoch
	// cadence by; 0 when the tenant is within budget).
	tenant    string
	classWire byte
	throttle  uint64

	// Reconnect pacing (ConnectAny): after a round where every endpoint
	// failed, the next attempt is gated by a jittered exponential backoff
	// so a dead SP is not hammered by the agent's epoch loop.
	dial    func(addr string) (io.ReadWriteCloser, error)
	nowFn   func() time.Time
	rng     *rand.Rand
	backoff time.Duration
	nextTry time.Time

	encBuf bytes.Buffer
	encFW  *wire.FrameWriter
}

// Reconnect backoff bounds: the first failed ConnectAny round defers
// the next one by ~DialBackoffBase (jittered in [base/2, base]),
// doubling per consecutive failing round up to DialBackoffCap.
const (
	DialBackoffBase = 100 * time.Millisecond
	DialBackoffCap  = 5 * time.Second
)

// NewDurableShipper creates a disconnected shipper for a source id.
// maxPending bounds the replay buffer (0 selects DefaultMaxPending).
func NewDurableShipper(source uint32, maxPending int) *DurableShipper {
	if maxPending <= 0 {
		maxPending = DefaultMaxPending
	}
	return &DurableShipper{
		source: source, max: maxPending,
		counters: obs.NewRegistry(),
		dial: func(addr string) (io.ReadWriteCloser, error) {
			return net.Dial("tcp", addr)
		},
		nowFn: time.Now,
		// Deterministic per-source jitter: distinct sources spread their
		// retries without the shipper needing a global entropy source.
		rng: rand.New(rand.NewPCG(uint64(source), 0x9e3779b97f4a7c15)),
	}
}

// SetIdentity declares the tenant and SLO class the shipper announces
// in its hellos; the SP's admission controller budgets and prioritizes
// its epochs accordingly. Call before Connect.
func (d *DurableShipper) SetIdentity(tenant string, class admission.Class) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tenant = tenant
	d.classWire = class.Wire()
}

// SetDialer replaces the TCP dialer (tests inject failing or in-memory
// connections). Call before Connect.
func (d *DurableShipper) SetDialer(dial func(addr string) (io.ReadWriteCloser, error)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dial = dial
}

// ThrottleHint returns how long the SP has asked this shipper to
// stretch its epoch cadence (zero when within budget). The agent's main
// loop sleeps this much extra between epochs, converting receiver-side
// queueing into source-side pacing without losing data.
func (d *DurableShipper) ThrottleHint() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return time.Duration(d.throttle) * time.Microsecond
}

// SetCompression switches the shipper's columnar data frames to the
// flate-compressed encoding. The replay buffer then stores epochs
// compressed and every connection gets those bytes verbatim; a peer
// whose ack does not advertise compression is refused at Connect. Call
// before the first ShipEpoch or Connect.
func (d *DurableShipper) SetCompression(v bool) {
	d.compress = v
}

// PeerVersion reports the wire version negotiated with the current
// connection (0 while disconnected).
func (d *DurableShipper) PeerVersion() uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.conn == nil {
		return 0
	}
	return d.peerVer
}

// Counters exposes the shipper's health counters.
func (d *DurableShipper) Counters() *obs.Registry { return d.counters }

// Source returns the shipper's source id.
func (d *DurableShipper) Source() uint32 { return d.source }

// encodeEpoch serializes one epoch — drains, results, watermark and the
// EpochEnd commit marker — into a standalone byte string that can be
// written (and re-written on replay) as-is: wire-v4 columnar data
// frames, flate-compressed when SetCompression is on.
//
// When lifecycle timing is on, the EpochEnd carries the trace-context
// extension: the caller's epoch timings plus the encode duration
// (encStart to just before the EpochEnd frame) and the seal timestamp.
// The extension is baked into the replay-buffer bytes, so a replayed
// epoch keeps its original seal time and the SP's ship segment honestly
// includes the buffering delay.
func (d *DurableShipper) encodeEpoch(seq uint64, res stream.EpochResult, encStart time.Time) ([]byte, error) {
	d.encBuf.Reset()
	if d.encFW == nil {
		d.encFW = wire.NewFrameWriter(&d.encBuf)
		d.encFW.SetColumnar(true)
		d.encFW.SetCompression(d.compress)
	} else {
		d.encFW.Reset(&d.encBuf)
	}
	fw := d.encFW
	// One frame per non-empty stage, then the results: within each, the
	// pipeline's leading Rows section keeps the carried-over rows ahead of
	// the arrival wave, the record order the SP's aggregation expects.
	for stage := range res.Drains {
		if len(res.Drains[stage].Secs) > 0 {
			if err := fw.WriteFrame(wire.Frame{StreamID: uint32(stage), Source: d.source, Cols: &res.Drains[stage]}); err != nil {
				return nil, err
			}
		}
	}
	if len(res.Results.Secs) > 0 {
		if err := fw.WriteFrame(wire.Frame{StreamID: uint32(res.ResultStage), Source: d.source, Cols: &res.Results}); err != nil {
			return nil, err
		}
	}
	wmRec := telemetry.Record{Time: res.Watermark, WireSize: 17, Data: &wire.Watermark{Time: res.Watermark}}
	if err := fw.WriteFrame(wire.Frame{StreamID: WatermarkStreamID, Source: d.source, Records: telemetry.Batch{wmRec}}); err != nil {
		return nil, err
	}
	end := &wire.EpochEnd{Seq: seq, Watermark: res.Watermark}
	if !encStart.IsZero() {
		now := time.Now()
		end.TraceID = uint64(d.source)<<40 | (seq & (1<<40 - 1))
		end.GenMicros = uint64(res.Timing.GenMicros)
		end.PipeMicros = uint64(res.Timing.PipeMicros)
		end.EncMicros = uint64(now.Sub(encStart).Microseconds())
		end.SentMicros = now.UnixMicro()
		end.StartMicros = res.Timing.StartMicros
		if end.StartMicros == 0 {
			// The driver recorded no epoch-level timing (sims, tests):
			// anchor the trace so the agent segments tile the seal time
			// exactly and e2e starts at encode.
			end.StartMicros = end.SentMicros - int64(end.GenMicros+end.PipeMicros+end.EncMicros)
		}
	}
	endRec := telemetry.Record{WireSize: 33, Data: end}
	if err := fw.WriteFrame(wire.Frame{StreamID: wire.ControlStreamID, Source: d.source, Records: telemetry.Batch{endRec}}); err != nil {
		return nil, err
	}
	if err := fw.Flush(); err != nil {
		return nil, err
	}
	return append([]byte(nil), d.encBuf.Bytes()...), nil
}

// ShipEpoch assigns the epoch the next sequence number, buffers it for
// replay and, when connected, writes it out. A write failure only marks
// the connection broken — the epoch stays buffered for the next
// reconnect.
//
// The whole operation runs under the write lock: sequence assignment and
// the wire write must not reorder against a concurrent reconnect's
// replay, or the receiver would see a higher sequence first and discard
// the replayed epochs as duplicates.
func (d *DurableShipper) ShipEpoch(res stream.EpochResult) error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	d.mu.Lock()
	d.seq++
	encStart := obs.Now()
	data, err := d.encodeEpoch(d.seq, res, encStart)
	obs.Since(obs.StageEncode, encStart)
	if err != nil {
		d.seq--
		d.mu.Unlock()
		return fmt.Errorf("transport: encode epoch: %w", err)
	}
	d.pending = append(d.pending, PendingEpoch{Seq: d.seq, Data: data})
	for len(d.pending) > d.max {
		d.pending = d.pending[1:]
		d.dropped++
		d.counters.Inc(CtrEpochsDropped)
	}
	conn := d.conn
	d.mu.Unlock()
	if conn == nil {
		return nil
	}
	shipStart := obs.Now()
	_, werr := conn.Write(data)
	obs.Since(obs.StageShip, shipStart)
	if werr != nil {
		d.disconnect(conn)
	}
	return nil
}

// Connect dials the SP and performs the resume handshake.
func (d *DurableShipper) Connect(addr string) error {
	d.mu.Lock()
	dial := d.dial
	d.mu.Unlock()
	conn, err := dial(addr)
	if err != nil {
		return fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	if err := d.ConnectConn(conn); err != nil {
		_ = conn.Close()
		return err
	}
	return nil
}

// ConnectConn adopts an established connection: it sends Hello, waits
// for the SP's durable-frontier ack, prunes the replay buffer up to it,
// replays everything after it, and starts the background ack reader.
func (d *DurableShipper) ConnectConn(conn io.ReadWriteCloser) error {
	d.mu.Lock()
	hello, err := d.helloLocked()
	d.mu.Unlock()
	if err != nil {
		return err
	}
	if _, err := conn.Write(hello); err != nil {
		return fmt.Errorf("transport: hello: %w", err)
	}
	fr := wire.NewFrameReader(conn)
	ack, err := readAck(fr)
	if err != nil {
		return fmt.Errorf("transport: hello ack: %w", err)
	}
	// Negotiate: both sides speak min(hello, ack). Below v4 (0 is a
	// pre-versioning peer, 2 and 3 ones that cannot read packed integer or
	// byte-plane float columns) or, for a compressing shipper, without
	// compression support, the peer could not read the replay buffer's
	// bytes; refuse before touching any state so the pending epochs wait
	// for a peer that can.
	peer := min(ack.Version, wire.CurrentWireVersion)
	if peer < wire.WireV4 {
		return fmt.Errorf("transport: peer negotiated wire v%d, need v%d or newer", peer, wire.WireV4)
	}
	if d.compress && !ack.Compress {
		return fmt.Errorf("transport: peer does not accept compressed frames")
	}

	// Take the write lock for the whole swap-and-replay: no concurrent
	// ShipEpoch may interleave a newer epoch ahead of the replayed ones
	// (the receiver would then discard the replay as stale duplicates).
	d.wmu.Lock()
	d.mu.Lock()
	if old := d.conn; old != nil {
		d.conn = nil
		_ = old.Close()
	}
	d.pruneLocked(ack.Seq)
	if ack.Term > d.term {
		d.term = ack.Term
	}
	replay := clonePending(d.pending)
	d.conn = conn
	d.peerVer = peer
	d.mu.Unlock()

	d.counters.Inc(CtrReconnects)
	for _, p := range replay {
		if _, err := conn.Write(p.Data); err != nil {
			d.wmu.Unlock()
			d.disconnect(conn)
			return fmt.Errorf("transport: replay epoch %d: %w", p.Seq, err)
		}
	}
	d.wmu.Unlock()
	go d.readAcks(conn, fr)
	return nil
}

// helloLocked encodes the Hello frame that opens a connection: source,
// last assigned sequence, wire version, fencing term, compression and
// admission identity. Callers hold d.mu.
func (d *DurableShipper) helloLocked() ([]byte, error) {
	var buf bytes.Buffer
	fw := wire.NewFrameWriter(&buf)
	rec := telemetry.Record{WireSize: 29, Data: &wire.Hello{
		Source: d.source, Seq: d.seq, Version: wire.CurrentWireVersion, Term: d.term,
		Compress: d.compress,
		Class:    d.classWire, Tenant: d.tenant,
	}}
	if err := fw.WriteFrame(wire.Frame{StreamID: wire.ControlStreamID, Source: d.source, Records: telemetry.Batch{rec}}); err != nil {
		return nil, err
	}
	if err := fw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ResumeBytes renders the shipper's resume stream as one byte string:
// the Hello handshake followed by every pending (unacked) epoch in the
// canonical encoding. It is the connectionless counterpart of
// ConnectConn for synchronous flush sessions (Flush). Replayed pending
// epochs deduplicate against the receiver's applied frontier exactly as
// a live reconnect's replay does.
func (d *DurableShipper) ResumeBytes() ([]byte, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	hello, err := d.helloLocked()
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(hello)
	for _, p := range d.pending {
		buf.Write(p.Data)
	}
	return buf.Bytes(), nil
}

// AdoptAcks consumes the ack bytes a synchronous flush session produced:
// the replay buffer prunes to the receiver's durable frontier, newer
// primary terms and throttle hints are adopted, and the return reports
// whether the receiver asked for a replay (a shed epoch) — satisfied
// naturally by the next ResumeBytes flush, which re-sends all pending.
func (d *DurableShipper) AdoptAcks(data []byte) (replay bool, err error) {
	fr := wire.NewFrameReader(bytes.NewReader(data))
	for {
		ack, rerr := readAck(fr)
		if rerr == io.EOF {
			return replay, nil
		}
		if rerr != nil {
			return replay, fmt.Errorf("transport: adopt acks: %w", rerr)
		}
		d.mu.Lock()
		d.pruneLocked(ack.Seq)
		if ack.Term > d.term {
			d.term = ack.Term
		}
		d.throttle = ack.ThrottleMicros
		d.mu.Unlock()
		if ack.Replay {
			replay = true
		}
	}
}

// Flush runs one synchronous session into a receiver in this process:
// the resume stream goes straight into HandleConn, the ack bytes it
// wrote back are adopted, and a replay request (a shed epoch) is served
// by one immediate second session. No goroutines, no sockets, no wall
// clock — the deterministic cluster sim and the in-process building
// block (core.Processor.Consume) speak the full protocol this way. On
// an error the unacked epochs stay pending for the next Flush.
func (d *DurableShipper) Flush(rc *Receiver) error {
	for attempt := 0; attempt < 2; attempt++ {
		data, err := d.ResumeBytes()
		if err != nil {
			return err
		}
		var acks bytes.Buffer
		conn := struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(data), &acks}
		if err := rc.HandleConn(conn); err != nil {
			return err
		}
		if replay, err := d.AdoptAcks(acks.Bytes()); err != nil || !replay {
			return err
		}
	}
	return nil
}

// readAck scans frames until the first Ack control record.
func readAck(fr *wire.FrameReader) (*wire.Ack, error) {
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			return nil, err
		}
		if f.StreamID != wire.ControlStreamID {
			continue
		}
		for _, rec := range f.Records {
			if ack, ok := rec.Data.(*wire.Ack); ok {
				return ack, nil
			}
		}
	}
}

// readAcks consumes the SP's ack stream for one connection, pruning the
// replay buffer as the durable frontier advances, adopting throttle
// hints, and honoring replay requests (the SP shed an epoch and wants
// the unacked tail re-sent on this same connection).
func (d *DurableShipper) readAcks(conn io.WriteCloser, fr *wire.FrameReader) {
	for {
		ack, err := readAck(fr)
		if err != nil {
			d.disconnect(conn)
			return
		}
		d.mu.Lock()
		d.pruneLocked(ack.Seq)
		if ack.Term > d.term {
			d.term = ack.Term
		}
		d.throttle = ack.ThrottleMicros
		d.mu.Unlock()
		if ack.Replay {
			d.replayPending(conn)
		}
	}
}

// replayPending re-sends every unacked epoch on the given connection,
// in order, under the write lock so no concurrent ShipEpoch interleaves
// a newer epoch ahead of the replayed tail.
func (d *DurableShipper) replayPending(conn io.WriteCloser) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	d.mu.Lock()
	if d.conn != conn {
		d.mu.Unlock()
		return
	}
	replay := clonePending(d.pending)
	d.mu.Unlock()
	d.counters.Inc(CtrReplayRequests)
	for _, p := range replay {
		if _, err := conn.Write(p.Data); err != nil {
			d.disconnect(conn)
			return
		}
	}
}

func (d *DurableShipper) pruneLocked(seq uint64) {
	if seq > d.acked {
		d.acked = seq
	}
	i := 0
	for i < len(d.pending) && d.pending[i].Seq <= d.acked {
		i++
	}
	d.pending = d.pending[i:]
}

func (d *DurableShipper) disconnect(conn io.WriteCloser) {
	d.mu.Lock()
	was := d.conn == conn
	if was {
		d.conn = nil
	}
	d.mu.Unlock()
	if was {
		_ = conn.Close()
		d.counters.Inc(CtrConnsClosed)
	}
}

// Connected reports whether a live connection is attached.
func (d *DurableShipper) Connected() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.conn != nil
}

// Seq returns the last assigned epoch sequence number.
func (d *DurableShipper) Seq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seq
}

// Acked returns the newest sequence the SP reported durable.
func (d *DurableShipper) Acked() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.acked
}

// Term returns the newest primary term observed in acks — the fencing
// token the shipper's hellos carry, so a stale primary that lost
// leadership learns it the moment a failed-over agent reconnects.
func (d *DurableShipper) Term() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.term
}

// SetTerm raises the shipper's fencing term (it never regresses). The
// agent recovery manager restores it from a snapshot, so a restarted
// agent does not forget the promotion it had witnessed and hand its
// epochs to a stale primary.
func (d *DurableShipper) SetTerm(t uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if t > d.term {
		d.term = t
	}
}

// Dropped returns how many unacked epochs the bounded buffer evicted
// (each is a hole replay cannot fill; size the buffer to the snapshot
// cadence to keep this zero).
func (d *DurableShipper) Dropped() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dropped
}

// State copies the shipper's durable state — sequence counters and the
// replay buffer — for inclusion in an agent snapshot.
func (d *DurableShipper) State() (seq, acked uint64, pending []PendingEpoch) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seq, d.acked, clonePending(d.pending)
}

// RestoreState reloads the durable state captured by State. Call before
// Connect on a freshly constructed shipper.
func (d *DurableShipper) RestoreState(seq, acked uint64, pending []PendingEpoch) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seq = seq
	d.acked = acked
	d.pending = clonePending(pending)
}

// Close detaches and closes the current connection (buffered epochs are
// kept).
func (d *DurableShipper) Close() error {
	d.mu.Lock()
	conn := d.conn
	d.conn = nil
	d.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	return nil
}
