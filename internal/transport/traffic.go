// Traffic recorder: full-fidelity capture of wire-v3 epoch streams. The
// flight recorder (flight.go) keeps a bounded ring for anomaly
// post-mortems; the traffic recorder instead writes *every* sequenced
// frame of every connection to a stream, so a live run becomes a
// replayable corpus — feed the capture back through a fresh receiver
// (ReplayTraffic) and the result log reproduces byte-for-byte, or split
// a connection into per-epoch runs (TrafficConn.Epochs) and use it as a
// deterministic arrival source in the cluster sim.
package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"jarvis/internal/obs"
	"jarvis/internal/wire"
)

// TrafficMagic starts every traffic capture stream.
const TrafficMagic = "JARVISTR1\n"

// Traffic recorder metric names (default registry).
const (
	CtrTrafficConns  = "traffic_conns_recorded"
	CtrTrafficFrames = "traffic_frames_recorded"
	CtrTrafficBytes  = "traffic_bytes_recorded"
	CtrTrafficEpochs = "traffic_epochs_recorded"
)

// MaxTrafficFrame bounds a single recorded frame on read-back; it
// matches the wire reader's own frame bound.
const MaxTrafficFrame = wire.MaxFrameSize

// TrafficRecorder appends every captured frame to w as
// (uvarint connID, uvarint frameLen, frame bytes) records after a magic
// header. Connection ids are assigned in first-tap order; frames of
// concurrent connections interleave in arrival order but each
// connection's own frames stay ordered, which is all replay needs.
// The recorder is safe for concurrent use; the first write error is
// sticky and surfaces via Err.
type TrafficRecorder struct {
	mu       sync.Mutex
	w        io.Writer
	nextConn uint64
	wroteHdr bool
	err      error

	ctrConns  obs.Counter
	ctrFrames obs.Counter
	ctrBytes  obs.Counter
	ctrEpochs obs.Counter
}

// NewTrafficRecorder arms a recorder writing to w (typically a buffered
// file). Install on a receiver with Receiver.SetTrafficRecorder before
// serving connections.
func NewTrafficRecorder(w io.Writer) *TrafficRecorder {
	reg := obs.Default()
	return &TrafficRecorder{
		w:         w,
		ctrConns:  reg.Counter(CtrTrafficConns),
		ctrFrames: reg.Counter(CtrTrafficFrames),
		ctrBytes:  reg.Counter(CtrTrafficBytes),
		ctrEpochs: reg.Counter(CtrTrafficEpochs),
	}
}

// Err returns the first write error, if any (capture stops at it).
func (t *TrafficRecorder) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// newTap registers a connection and returns its per-connection capture
// handle. Nil-receiver safe, mirroring the flight ring.
func (t *TrafficRecorder) newTap() *trafficTap {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	id := t.nextConn
	t.nextConn++
	t.mu.Unlock()
	t.ctrConns.Inc()
	return &trafficTap{rec: t, id: id}
}

// trafficTap is one connection's capture handle.
type trafficTap struct {
	rec *TrafficRecorder
	id  uint64
	hdr [2 * binary.MaxVarintLen64]byte
}

// capture appends one frame (12-byte header + payload, as returned by
// FrameReader.RawFrame) to the capture stream.
func (tp *trafficTap) capture(frame []byte) {
	if tp == nil || len(frame) == 0 {
		return
	}
	t := tp.rec
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

// noteEpoch counts one committed epoch observed on a tapped connection.
func (tp *trafficTap) noteEpoch() {
	if tp == nil {
		return
	}
	tp.rec.ctrEpochs.Inc()
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

// ReadTrafficCapture parses a capture into per-connection streams, in
// first-seen order. The frames alias data.
func ReadTrafficCapture(data []byte) ([]*TrafficConn, error) {
	if len(data) < len(TrafficMagic) || string(data[:len(TrafficMagic)]) != TrafficMagic {
		return nil, fmt.Errorf("transport: not a traffic capture (bad magic)")
	}
	rest := data[len(TrafficMagic):]
	var (
		order []*TrafficConn
		byID  = map[uint64]*TrafficConn{}
	)
	for len(rest) > 0 {
		id, k := binary.Uvarint(rest)
		if k <= 0 {
			return nil, fmt.Errorf("transport: traffic capture truncated at conn id")
		}
		rest = rest[k:]
		n, k := binary.Uvarint(rest)
		if k <= 0 || n > MaxTrafficFrame || uint64(len(rest)-k) < n {
			return nil, fmt.Errorf("transport: traffic capture truncated at frame")
		}
		frame := rest[k : k+int(n)]
		rest = rest[k+int(n):]
		c := byID[id]
		if c == nil {
			c = &TrafficConn{ID: id}
			byID[id] = c
			order = append(order, c)
		}
		c.Frames = append(c.Frames, frame)
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("transport: traffic capture holds no frames")
	}
	return order, nil
}

// ReplayTraffic feeds every recorded connection through the receiver in
// capture order, discarding acks. The receiver should be fresh (or at
// least behind the capture's sequence numbers). Deterministic: the same
// capture into the same receiver state yields the same engine state —
// which is what turns a live run's traffic into a regression corpus.
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
		if binary.BigEndian.Uint32(f[0:4]) != wire.ControlStreamID {
			if hello != nil {
				run = append(run, f)
			}
			continue
		}
		isHello, isEnd, derr := classifyControlFrame(f)
		if derr != nil {
			return nil, nil, derr
		}
		switch {
		case isHello:
			if hello == nil {
				hello = f
			}
			// A re-hello mid-stream restates the handshake; the frames
			// keep accumulating into the current run.
		case isEnd:
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

// classifyControlFrame reports whether a control frame carries a Hello
// or an EpochEnd.
func classifyControlFrame(frame []byte) (isHello, isEnd bool, err error) {
	hello, end, err := DecodeControl(frame)
	return hello != nil, end != nil, err
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
