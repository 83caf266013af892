// Capture & replay: one recorder, one on-disk format. A TrafficRecorder
// taps every connection of a receiver (one capture call per frame) and
// feeds up to two sinks:
//
//   - the stream (NewTrafficRecorder's writer): every frame of every
//     connection, so a live run becomes a replayable corpus;
//   - the ring (ArmRing): a bounded per-connection history with the
//     Hello pinned, dumped automatically when the receiver does something
//     anomalous — sheds an epoch, degrades a tenant, fails over, fences a
//     stale primary — so the exact bytes that provoked the event are on
//     disk, not reconstructed from logs after the fact.
//
// Both serialize as JARVISTR1: the magic, then (uvarint connID, uvarint
// len, frame) records, each frame the verbatim wire bytes (12-byte header
// + payload, still compressed if it traveled compressed). A ring dump
// additionally ends with one JSON FlightMeta record under a reserved
// connection id. ReadTrafficCapture splits either kind, ReplayTraffic
// feeds it back through a fresh receiver byte-for-byte, and
// TrafficConn.Epochs cuts a connection into per-epoch runs for the
// cluster sim — so a post-mortem artifact and a regression corpus are the
// same file type.
package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"jarvis/internal/obs"
	"jarvis/internal/wire"
)

// TrafficMagic starts every capture stream and ring dump.
const TrafficMagic = "JARVISTR1\n"

// Recorder metric names (default registry). The traffic_* counters meter
// the stream sink; flight_dumps_total counts ring dumps.
const (
	CtrTrafficConns  = "traffic_conns_recorded"
	CtrTrafficFrames = "traffic_frames_recorded"
	CtrTrafficBytes  = "traffic_bytes_recorded"
	CtrTrafficEpochs = "traffic_epochs_recorded"
	CtrFlightDumps   = "flight_dumps_total"
)

// MaxTrafficFrame bounds a single recorded frame on read-back; it
// matches the wire reader's own frame bound.
const MaxTrafficFrame = wire.MaxFrameSize

// metaConnID is the reserved connection id of a dump's FlightMeta record.
// Taps number connections from zero, so a stream capture never reaches it.
const metaConnID = math.MaxUint64

const (
	// ringBudget bounds one connection ring's retained frame bytes (the
	// pinned Hello is kept outside the budget). Sized to hold several
	// seconds of row-encoded epochs at evaluation rates — a single 1 s row
	// data frame runs to hundreds of KiB, and a dump that cannot hold the
	// epoch that provoked the anomaly is useless.
	ringBudget = 8 << 20
	// maxDumps is how many serialized dumps the recorder retains.
	maxDumps = 8
	// dumpMinGap rate-limits automatic dumps: anomalies arrive in bursts
	// (every shed in an overload storm emits a decision), and one dump per
	// burst captures the same ring contents as fifty.
	dumpMinGap = time.Second
	// maxRetiredTaps bounds how many closed connections' rings stay
	// dumpable: anomalies that kill the connection (a poisoned frame, a
	// fenced hello) dump after teardown, so the evidence must outlive it.
	maxRetiredTaps = 4
)

// FlightMeta is the JSON header record of a ring dump.
type FlightMeta struct {
	Reason   string `json:"reason"`
	TsMicros int64  `json:"ts_us,omitempty"`
	Seq      int64  `json:"seq"` // 1-based dump number within this recorder
	// Decisions emitted since the previous dump (bounded by the decision
	// ring), newest last.
	Decisions []obs.Decision `json:"decisions,omitempty"`
	// CounterDeltas are receiver-counter increments since the previous
	// dump (or ArmRing), zero-delta names omitted.
	CounterDeltas map[string]int64 `json:"counter_deltas,omitempty"`
}

// TrafficRecorder captures the raw wire frames of every connection of
// the receiver it is installed on (Receiver.SetTrafficRecorder).
// Connection ids are assigned in first-tap order; in the stream, frames
// of concurrent connections interleave in arrival order but each
// connection's own frames stay ordered, which is all replay needs. The
// recorder is safe for concurrent use; the first stream write error is
// sticky and surfaces via Err.
type TrafficRecorder struct {
	mu       sync.Mutex
	w        io.Writer // stream sink (nil = none)
	nextConn uint64
	wroteHdr bool
	err      error

	// Ring sink and its dumps (ArmRing; budget 0 = unarmed, and fixed
	// before connections are served).
	budget   int
	lastAt   time.Time // previous dump, for the automatic-dump rate limit
	reg      *obs.Registry
	base     map[string]int64
	lastSeen int64 // obs.Decisions().Total() at the previous dump
	live     map[*trafficTap]struct{}
	retired  []*trafficTap // recently closed connections, oldest first
	dumps    [][]byte
	total    int64
	lastMeta FlightMeta

	ctrConns  obs.Counter
	ctrFrames obs.Counter
	ctrBytes  obs.Counter
	ctrEpochs obs.Counter
	ctrDumps  obs.Counter
}

// NewTrafficRecorder returns a recorder streaming every frame to w
// (typically a buffered file); a nil w arms no stream, for a recorder
// that only keeps rings. Install it with Receiver.SetTrafficRecorder
// before serving connections.
func NewTrafficRecorder(w io.Writer) *TrafficRecorder {
	reg := obs.Default()
	return &TrafficRecorder{
		w:         w,
		ctrConns:  reg.Counter(CtrTrafficConns),
		ctrFrames: reg.Counter(CtrTrafficFrames),
		ctrBytes:  reg.Counter(CtrTrafficBytes),
		ctrEpochs: reg.Counter(CtrTrafficEpochs),
		ctrDumps:  reg.Counter(CtrFlightDumps),
	}
}

// ArmRing arms the bounded per-connection rings and their anomaly dumps.
// reg is the counter registry whose deltas each dump carries (typically
// the receiver's; nil skips counter deltas). Wire decision-triggered
// dumps with obs.Decisions().SetNotify(rec.OnDecision) and expose
// on-demand dumps via ServeHTTP. Call before serving connections.
func (t *TrafficRecorder) ArmRing(reg *obs.Registry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.budget = ringBudget
	t.reg, t.base = reg, reg.Snapshot()
	t.lastSeen = obs.Decisions().Total()
	t.live = make(map[*trafficTap]struct{})
}

// Err returns the first stream write error, if any (the stream stops at
// it; rings keep recording).
func (t *TrafficRecorder) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// newTap registers a connection and returns its capture handle. Nil-
// receiver safe, so an unarmed HandleConn pays one nil check per frame.
func (t *TrafficRecorder) newTap() *trafficTap {
	if t == nil {
		return nil
	}
	tp := &trafficTap{rec: t}
	t.mu.Lock()
	tp.id = t.nextConn
	t.nextConn++
	if t.budget > 0 {
		t.live[tp] = struct{}{}
	}
	t.mu.Unlock()
	if t.w != nil {
		t.ctrConns.Inc()
	}
	return tp
}

// trafficTap is one connection's capture handle and, when the ring is
// armed, its bounded frame history, kept as ready-to-dump capture
// records: the pinned Hello, then whole epochs oldest first, then the
// frames of the epoch still in flight.
type trafficTap struct {
	rec *TrafficRecorder
	id  uint64
	hdr [2 * binary.MaxVarintLen64]byte

	mu       sync.Mutex
	hello    []byte
	done     [][]byte // whole retained epochs, each ending in its EpochEnd
	open     []byte   // frames since the last EpochEnd
	bytes    int      // retained bytes, done + open
	overflow bool     // the open epoch alone outgrew the budget: skip to its EpochEnd
}

// capture records one frame (12-byte header + payload, as returned by
// FrameReader.RawFrame) into the armed sinks.
func (tp *trafficTap) capture(frame []byte) {
	if tp == nil || len(frame) == 0 {
		return
	}
	t := tp.rec
	if t.budget > 0 {
		tp.retain(frame)
	}
	if t.w == nil {
		return
	}
	n := binary.PutUvarint(tp.hdr[:], tp.id)
	n += binary.PutUvarint(tp.hdr[n:], uint64(len(frame)))
	t.mu.Lock()
	if t.err == nil && !t.wroteHdr {
		if _, err := io.WriteString(t.w, TrafficMagic); err != nil {
			t.err = err
		}
		t.wroteHdr = true
	}
	if t.err == nil {
		if _, err := t.w.Write(tp.hdr[:n]); err != nil {
			t.err = err
		} else if _, err := t.w.Write(frame); err != nil {
			t.err = err
		}
	}
	t.mu.Unlock()
	t.ctrFrames.Inc()
	t.ctrBytes.Add(int64(len(frame)))
}

// retain copies one frame into the ring. Eviction is epoch-aligned: an
// EpochEnd carries no frame count, so a replay that began with the tail
// of an evicted epoch would apply it as if whole. While over budget the
// oldest whole epoch goes; an open epoch that outgrows the budget by
// itself cannot be kept whole, so it is not kept at all.
func (tp *trafficTap) retain(frame []byte) {
	budget := tp.rec.budget
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if tp.overflow {
		return
	}
	before := len(tp.open)
	tp.open = appendRecord(tp.open, tp.id, frame)
	tp.bytes += len(tp.open) - before
	for tp.bytes > budget && len(tp.done) > 0 {
		tp.bytes -= len(tp.done[0])
		tp.done = tp.done[1:]
	}
	if tp.bytes > budget {
		tp.open, tp.bytes, tp.overflow = nil, 0, true
	}
}

// noteEpoch marks an epoch boundary: the frame just captured carried the
// connection's EpochEnd.
func (tp *trafficTap) noteEpoch() {
	if tp == nil {
		return
	}
	if tp.rec.w != nil {
		tp.rec.ctrEpochs.Inc()
	}
	if tp.rec.budget == 0 {
		return
	}
	tp.mu.Lock()
	if tp.overflow {
		tp.overflow = false
	} else if len(tp.open) > 0 {
		tp.done = append(tp.done, tp.open)
		tp.open = nil
	}
	tp.mu.Unlock()
}

// pinHello pins the Hello frame that just established the sequenced
// discipline, so every dump replays with a valid handshake even after
// the ring wraps. Frames retained before it are discarded — the receiver
// drops them whole too, so they have no place in a replayable stream.
func (tp *trafficTap) pinHello(frame []byte) {
	if tp == nil || tp.rec.budget == 0 {
		return
	}
	tp.mu.Lock()
	tp.hello = appendRecord(nil, tp.id, frame)
	tp.done, tp.open, tp.bytes, tp.overflow = nil, nil, 0, false
	tp.mu.Unlock()
}

// close retires the tap's ring (connection teardown). Its frames stay
// available to the next few dumps — anomalies that end the connection
// are exactly the ones worth a post-mortem.
func (tp *trafficTap) close() {
	if tp == nil || tp.rec.budget == 0 {
		return
	}
	t := tp.rec
	t.mu.Lock()
	delete(t.live, tp)
	t.retired = append(t.retired, tp)
	if len(t.retired) > maxRetiredTaps {
		t.retired = t.retired[len(t.retired)-maxRetiredTaps:]
	}
	t.mu.Unlock()
}

// appendRecord appends one (connID, len, payload) capture record.
func appendRecord(out []byte, id uint64, payload []byte) []byte {
	out = binary.AppendUvarint(out, id)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	return append(out, payload...)
}

// appendRing appends the tap's ring to a dump: hello first, whole
// epochs, then whatever of the open epoch has arrived (replay never
// commits it; it is there for the post-mortem).
func (tp *trafficTap) appendRing(out []byte) []byte {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	out = append(out, tp.hello...)
	for _, epoch := range tp.done {
		out = append(out, epoch...)
	}
	return append(out, tp.open...)
}

// OnDecision is the obs decision-log observer: anomalous kinds — shed
// verdicts, tenant degrade/promote flips, shipper failover, HA fencing
// and promotion — trigger a rate-limited dump named after the decision.
func (t *TrafficRecorder) OnDecision(d obs.Decision) {
	switch d.Kind {
	case "admission", "degrade", "promote", "failover", "fencing", "promotion", "forced_drain":
		t.trigger(d.Kind+":"+d.Cause, true)
	}
}

// Trigger serializes a dump immediately (no rate limit) and returns it;
// the dump is also retained for ServeHTTP. Returns nil when no ring holds
// a frame.
func (t *TrafficRecorder) Trigger(reason string) []byte {
	return t.trigger(reason, false)
}

func (t *TrafficRecorder) trigger(reason string, limited bool) []byte {
	t.mu.Lock()
	if limited && !t.lastAt.IsZero() && time.Since(t.lastAt) < dumpMinGap {
		t.mu.Unlock()
		return nil
	}
	taps := make([]*trafficTap, 0, len(t.live)+len(t.retired))
	for tp := range t.live {
		taps = append(taps, tp)
	}
	taps = append(taps, t.retired...)
	t.lastAt = time.Now()
	t.mu.Unlock()

	// Render the rings outside the recorder lock (each tap has its own;
	// tap registration is the only shared state), in connection order.
	sort.Slice(taps, func(i, j int) bool { return taps[i].id < taps[j].id })
	dump := []byte(TrafficMagic)
	for _, tp := range taps {
		dump = tp.appendRing(dump)
	}
	if len(dump) == len(TrafficMagic) {
		return nil
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	meta := FlightMeta{Reason: reason, TsMicros: time.Now().UnixMicro(), Seq: t.total}
	// Decisions since the previous dump, bounded by the decision ring.
	total := obs.Decisions().Total()
	if n := total - t.lastSeen; n > 0 {
		meta.Decisions = obs.Decisions().Recent(int(n))
	}
	t.lastSeen = total
	if t.reg != nil {
		cur := t.reg.Snapshot()
		deltas := make(map[string]int64)
		for name, v := range cur {
			if d := v - t.base[name]; d != 0 {
				deltas[name] = d
			}
		}
		if len(deltas) > 0 {
			meta.CounterDeltas = deltas
		}
		t.base = cur
	}
	mj, _ := json.Marshal(&meta) // plain data: cannot fail
	dump = appendRecord(dump, metaConnID, mj)
	t.dumps = append(t.dumps, dump)
	if len(t.dumps) > maxDumps {
		t.dumps = t.dumps[len(t.dumps)-maxDumps:]
	}
	t.lastMeta = meta
	t.ctrDumps.Inc()
	return dump
}

// LastDump describes the newest dump for /status (zero meta, false
// before the first dump).
func (t *TrafficRecorder) LastDump() (FlightMeta, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastMeta, t.total > 0
}

// ServeHTTP serves the newest dump as application/octet-stream;
// ?trigger=1 forces a fresh dump first (404 when nothing is armed or
// recorded yet).
func (t *TrafficRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("trigger") != "" {
		t.Trigger("manual:http")
	}
	t.mu.Lock()
	var dump []byte
	if len(t.dumps) > 0 {
		dump = t.dumps[len(t.dumps)-1]
	}
	t.mu.Unlock()
	if dump == nil {
		http.Error(w, "flight recorder: no dump recorded", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(dump)
}

// TrafficConn is one recorded connection's ordered frame stream.
type TrafficConn struct {
	// ID is the capture-order connection id.
	ID uint64
	// Frames are the connection's raw wire frames (12-byte header +
	// payload each, no length prefix), in arrival order. They alias the
	// capture buffer.
	Frames [][]byte
}

// WireStream renders the connection as a replayable byte stream: each
// frame re-prefixed with its 4-byte length, ready for a FrameReader or
// Receiver.HandleConn.
func (c *TrafficConn) WireStream() []byte {
	size := 0
	for _, f := range c.Frames {
		size += 4 + len(f)
	}
	out := make([]byte, 0, size)
	for _, f := range c.Frames {
		out = binary.BigEndian.AppendUint32(out, uint32(len(f)))
		out = append(out, f...)
	}
	return out
}

// splitCapture is the one JARVISTR1 parser: per-connection streams in
// first-seen order plus, for a ring dump, its meta record. The frames
// alias data.
func splitCapture(data []byte) ([]*TrafficConn, *FlightMeta, error) {
	if len(data) < len(TrafficMagic) || string(data[:len(TrafficMagic)]) != TrafficMagic {
		return nil, nil, fmt.Errorf("transport: not a traffic capture (bad magic)")
	}
	rest := data[len(TrafficMagic):]
	var (
		order []*TrafficConn
		byID  = map[uint64]*TrafficConn{}
		meta  *FlightMeta
	)
	for len(rest) > 0 {
		id, k := binary.Uvarint(rest)
		if k <= 0 {
			return nil, nil, fmt.Errorf("transport: traffic capture truncated at conn id")
		}
		rest = rest[k:]
		n, k := binary.Uvarint(rest)
		if k <= 0 || n > MaxTrafficFrame || uint64(len(rest)-k) < n {
			return nil, nil, fmt.Errorf("transport: traffic capture truncated at frame")
		}
		frame := rest[k : k+int(n)]
		rest = rest[k+int(n):]
		if id == metaConnID {
			meta = new(FlightMeta)
			if err := json.Unmarshal(frame, meta); err != nil {
				return nil, nil, fmt.Errorf("transport: traffic capture meta record: %w", err)
			}
			continue
		}
		c := byID[id]
		if c == nil {
			c = &TrafficConn{ID: id}
			byID[id] = c
			order = append(order, c)
		}
		c.Frames = append(c.Frames, frame)
	}
	if len(order) == 0 {
		return nil, nil, fmt.Errorf("transport: traffic capture holds no frames")
	}
	return order, meta, nil
}

// ReadTrafficCapture parses a capture or ring dump into per-connection
// streams, in first-seen order. The frames alias data.
func ReadTrafficCapture(data []byte) ([]*TrafficConn, error) {
	conns, _, err := splitCapture(data)
	return conns, err
}

// ReadDumpMeta returns a ring dump's header record: why and when it was
// taken, the decisions and counter deltas since the previous dump. It is
// nil for a stream capture, which carries none.
func ReadDumpMeta(data []byte) (*FlightMeta, error) {
	_, meta, err := splitCapture(data)
	return meta, err
}

// replayConn adapts a recorded stream to HandleConn: reads come from the
// recording, ack writes vanish.
type replayConn struct{ io.Reader }

func (replayConn) Write(p []byte) (int, error) { return len(p), nil }

// ReplayTraffic feeds every recorded connection through the receiver in
// capture order, discarding acks. The receiver should be fresh (or at
// least behind the capture's sequence numbers, which dedup would
// discard). Deterministic: the same capture into the same receiver state
// yields the same engine state — which is what turns a live run's
// traffic, or an anomaly dump, into a regression corpus.
func ReplayTraffic(rc *Receiver, capture []byte) (conns int, err error) {
	cs, err := ReadTrafficCapture(capture)
	if err != nil {
		return 0, err
	}
	for i, c := range cs {
		if err := rc.HandleConn(replayConn{bytes.NewReader(c.WireStream())}); err != nil {
			return i, fmt.Errorf("transport: replay conn %d: %w", c.ID, err)
		}
	}
	return len(cs), nil
}

// Epochs splits the connection into its Hello handshake and per-epoch
// frame runs: each run is the frames of one epoch ending with its
// EpochEnd control frame. Control records are row-encoded, so the split
// decodes only control frames (identified by stream id) and leaves data
// frames untouched. Trailing frames after the last EpochEnd (an epoch
// cut off mid-capture) are dropped — a replay source can only use whole
// epochs. The sim replays a recorded connection by flushing hello + one
// run per virtual epoch.
func (c *TrafficConn) Epochs() (hello []byte, epochs [][][]byte, err error) {
	var run [][]byte
	for _, f := range c.Frames {
		if len(f) < 12 {
			return nil, nil, fmt.Errorf("transport: recorded frame shorter than a wire header")
		}
		if binary.BigEndian.Uint32(f[0:4]) != wire.ControlStreamID {
			if hello != nil {
				run = append(run, f)
			}
			continue
		}
		h, end, derr := DecodeControl(f)
		if derr != nil {
			return nil, nil, derr
		}
		switch {
		case h != nil:
			if hello == nil {
				hello = f
			}
			// A re-hello mid-stream restates the handshake; the frames
			// keep accumulating into the current run.
		case end != nil:
			if hello == nil {
				return nil, nil, fmt.Errorf("transport: epoch end before hello in capture")
			}
			run = append(run, f)
			epochs = append(epochs, run)
			run = nil
		}
	}
	if hello == nil {
		return nil, nil, fmt.Errorf("transport: no hello in recorded connection")
	}
	return hello, epochs, nil
}

// DecodeControl decodes a recorded control frame's Hello and EpochEnd
// records (either may be nil; acks never appear in an agent→SP capture
// but are tolerated). Replay tooling uses it to identify handshakes and
// epoch boundaries without touching data frames.
func DecodeControl(frame []byte) (hello *wire.Hello, end *wire.EpochEnd, err error) {
	if len(frame) < 12 {
		return nil, nil, fmt.Errorf("transport: short control frame")
	}
	count := binary.BigEndian.Uint32(frame[8:12])
	off := 12
	for i := uint32(0); i < count; i++ {
		rec, k, derr := wire.DecodeRecord(frame[off:])
		if derr != nil {
			return nil, nil, fmt.Errorf("transport: control frame record: %w", derr)
		}
		off += k
		switch c := rec.Data.(type) {
		case *wire.Hello:
			if hello == nil {
				hello = c
			}
		case *wire.EpochEnd:
			if end == nil {
				end = c
			}
		}
	}
	return hello, end, nil
}

// HelloSource returns the source id the connection's handshake declared.
func (c *TrafficConn) HelloSource() (uint32, error) {
	hello, _, err := c.Epochs()
	if err != nil {
		return 0, err
	}
	h, _, err := DecodeControl(hello)
	if err != nil {
		return 0, err
	}
	if h == nil {
		return 0, fmt.Errorf("transport: no hello record in frame")
	}
	return h.Source, nil
}
