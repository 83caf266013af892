package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"jarvis/internal/checkpoint"
	"jarvis/internal/core"
	"jarvis/internal/ha"
	"jarvis/internal/telemetry"
	"jarvis/internal/transport"
	"jarvis/internal/wire"
)

// spTick is how often the SP loop looks for newly applied epochs and, if
// there are any, advances the engine (and, with a checkpoint dir,
// snapshots, replicates and acks). jarvis-sp ticks once a second; a
// latency benchmark needs the tick below the latencies it reports. It is
// a constant of the benchmark, the same on every workload.
const spTick = time.Millisecond

// topology is what jarvis-sp and jarvis-agent stand up, in one process:
// a processor behind a receiver and loopback-TCP server, optionally the
// recovery manager, publisher and warm standby, and the agents'
// sources and durable shippers. It is driven only through those
// packages' exported functions.
type topology struct {
	spec   *spec
	tr     *tracer // nil on untraced runs
	dir    string  // scratch root of this topology, removed by close
	rc     *transport.Receiver
	srv    *transport.Server
	rm     *checkpoint.SPRecovery
	rlog   *checkpoint.ResultLog
	pub    *ha.Publisher
	repl   *timedReplicator
	agents []*agent
	cancel context.CancelFunc
	wg     sync.WaitGroup

	capture *gatedCapture // traced runs: the traffic recorder's sink

	mu       sync.Mutex // guards rows, tickErr
	rows     resultLog
	tickErr  error
	ticking  bool
	tickStop chan struct{}
	tickDone chan struct{}
}

// standUp builds and connects a topology. scratch is the directory temp
// dirs are created under ("" selects the system default).
func standUp(s *spec, scratch string, tr *tracer) (_ *topology, err error) {
	t := &topology{spec: s, tr: tr, rows: resultLog{}, tickStop: make(chan struct{}), tickDone: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	t.cancel = cancel
	defer func() {
		if err != nil {
			t.close()
		}
	}()

	proc, err := core.NewProcessor(s.query())
	if err != nil {
		return nil, err
	}
	t.rc = transport.NewReceiver(proc.Engine())
	if tr != nil {
		t.capture = newGatedCapture()
		t.rc.SetTrafficRecorder(transport.NewTrafficRecorder(t.capture))
	}
	gate := ha.NewGate(ha.RolePrimary, 1, nil)
	if s.ha {
		if t.dir, err = os.MkdirTemp(scratch, "jarvis-benchmark-*"); err != nil {
			return nil, err
		}
		priDir := filepath.Join(t.dir, "primary")
		store, err := checkpoint.OpenStore(priDir)
		if err != nil {
			return nil, err
		}
		logPath := filepath.Join(priDir, "results.log")
		if t.rlog, err = checkpoint.OpenResultLog(logPath); err != nil {
			return nil, err
		}
		// A snapshot every applied epoch: with the agents' due times
		// staggered that is one per round of each agent, and every epoch's
		// ack waits for its own save and replication only.
		t.rm = checkpoint.NewSPRecovery(store, t.rlog, proc.Engine(), t.rc, 1)
		if _, err := t.rm.Restore(); err != nil {
			return nil, err
		}
		t.rm.SetTerm(1)
		t.pub = ha.NewPublisher(store, logPath, 1, gate.Counters())
		if tr != nil {
			t.repl = &timedReplicator{pub: t.pub, tr: tr}
			t.rm.SetReplicator(t.repl, 0)
		} else {
			t.rm.SetReplicator(t.pub, 0)
		}
	}
	t.rc.SetHelloGate(gate)
	for a := 0; a < numAgents; a++ {
		t.rc.RegisterSource(uint32(a + 1))
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t.srv = transport.NewServer(t.rc)
	var serveLn net.Listener = ln
	if tr != nil {
		serveLn = &spListener{Listener: ln, tr: tr}
	}
	t.wg.Add(1)
	go func() { defer t.wg.Done(); _ = t.srv.Serve(ctx, serveLn) }()

	if s.ha {
		rln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		t.wg.Add(1)
		go func() { defer t.wg.Done(); _ = t.pub.Serve(ctx, rln) }()
		sproc, err := core.NewProcessor(s.query())
		if err != nil {
			return nil, err
		}
		st, err := ha.NewStandby(sproc, filepath.Join(t.dir, "standby"), nil)
		if err != nil {
			return nil, err
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			st.Run(ctx, rln.Addr().String())
			_ = st.ResultLog().Close()
			_ = st.Store().Close()
		}()
		// Acks are gated on the standby only once it is attached.
		for deadline := time.Now().Add(5 * time.Second); t.pub.Standbys() < 1; {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("standby did not attach within 5s")
			}
			time.Sleep(200 * time.Microsecond)
		}
	}

	for a := 0; a < numAgents; a++ {
		ag, err := newAgent(s, uint32(a+1), ln.Addr().String(), tr)
		if err != nil {
			return nil, err
		}
		t.agents = append(t.agents, ag)
	}
	t.ticking = true
	go t.tickLoop()
	return t, nil
}

// advance is jarvis-sp's advance closure.
func (t *topology) advance() (telemetry.Batch, error) {
	if t.rm != nil {
		return t.rm.Advance()
	}
	return t.rc.Advance(), nil
}

func (t *topology) applied() (n uint64) {
	for _, a := range t.agents {
		n += t.rc.AppliedSeq(a.id)
	}
	return n
}

// tickLoop drives the SP side the way jarvis-sp's main loop does, on the
// benchmark's tick, advancing only when an applied sequence moved.
func (t *topology) tickLoop() {
	defer close(t.tickDone)
	tk := time.NewTicker(spTick)
	defer tk.Stop()
	var last uint64
	for {
		select {
		case <-t.tickStop:
			return
		case <-tk.C:
		}
		cur := t.applied()
		if cur == last {
			continue
		}
		last = cur
		start := time.Now()
		round := -1
		if t.repl != nil {
			round = t.tr.reserve()
			t.repl.parent.Store(int64(round))
		}
		rows, err := t.advance()
		if t.repl != nil {
			t.tr.fill(round, "checkpoint.advance", start, time.Now(), -1, 0, cur)
		}
		t.mu.Lock()
		t.rows.add(rows)
		if err != nil && t.tickErr == nil {
			t.tickErr = err
		}
		t.mu.Unlock()
	}
}

// settle stops the tick loop and takes the final advance, so the result
// log holds every window the applied epochs closed.
func (t *topology) settle() (resultLog, error) {
	close(t.tickStop)
	<-t.tickDone
	rows, err := t.advance()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows.add(rows)
	if err == nil {
		err = t.tickErr
	}
	return t.rows, err
}

// close tears everything down and removes the scratch directory. It is
// safe on a partially built topology.
func (t *topology) close() {
	for _, a := range t.agents {
		_ = a.ship.Close()
	}
	if t.ticking {
		select {
		case <-t.tickStop:
		default:
			close(t.tickStop)
		}
		<-t.tickDone
	}
	t.cancel()
	if t.srv != nil {
		_ = t.srv.Close()
	}
	if t.pub != nil {
		_ = t.pub.Close()
	}
	t.wg.Wait()
	if t.rm != nil {
		_ = t.rm.Close()
	}
	if t.rlog != nil {
		_ = t.rlog.Close()
	}
	if t.dir != "" {
		_ = os.RemoveAll(t.dir)
	}
}

// agent is one jarvis-agent: a source, a durable shipper, and the wrapped
// connection the harness observes it through.
type agent struct {
	id   uint32
	src  *core.Source
	ship *transport.DurableShipper
	conn *agentConn
	pool *pool
	tr   *tracer
	next int // index of the next epoch to run

	// epochs is indexed by seq (slot 0 unused). The agent goroutine
	// appends before ShipEpoch; the ack reader fills ackAt.
	mu     sync.Mutex
	epochs []epochRecord
	seen   uint64        // acked frontier the ack reader has recorded
	acked  chan struct{} // poked on every ack arrival (saturation window)
}

// epochRecord is what the harness keeps about one shipped epoch.
type epochRecord struct {
	due     time.Time
	ackAt   time.Time // zero until acked
	records int       // input records
	drained int       // records drained at any proxy
	used    float64   // BudgetUsedFrac
	bytes   int64     // written to the connection for this epoch
}

func newAgent(s *spec, id uint32, addr string, tr *tracer) (*agent, error) {
	src, err := s.newSource(id)
	if err != nil {
		return nil, err
	}
	a := &agent{
		id: id, src: src, tr: tr,
		ship:   transport.NewDurableShipper(id, 0),
		acked:  make(chan struct{}, 1),
		epochs: make([]epochRecord, 1),
	}
	a.ship.SetCompression(true)
	a.ship.SetDialer(func(addr string) (io.ReadWriteCloser, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		a.conn = &agentConn{Conn: c, a: a}
		return a.conn, nil
	})
	if err := a.ship.Connect(addr); err != nil {
		return nil, err
	}
	return a, nil
}

// noteAcks stamps every sequence the shipper's ack frontier newly covers
// with the arrival time of the bytes that carried the ack.
func (a *agent) noteAcks(arrived time.Time) {
	acked := a.ship.Acked()
	a.mu.Lock()
	for a.seen < acked && int(a.seen)+1 < len(a.epochs) {
		a.seen++
		a.epochs[a.seen].ackAt = arrived
	}
	a.mu.Unlock()
	select {
	case a.acked <- struct{}{}:
	default:
	}
}

// agentConn wraps the agent's TCP connection. Writes are counted (the
// wire-bytes metric) and, on traced runs, recorded as child spans of the
// ShipEpoch that issued them. Reads deliver ack-arrival events: the
// shipper's ack reader calls Read again only after it has applied every
// ack of the previous read to its frontier, so on entry the frontier is
// current and the previous read's return time is when those acks
// arrived.
type agentConn struct {
	net.Conn
	a        *agent
	bytesOut atomic.Int64
	arrived  time.Time // return time of the last non-empty Read (reader goroutine only)
	shipSpan atomic.Int64
	shipSeq  atomic.Uint64
}

func (c *agentConn) Read(p []byte) (int, error) {
	if !c.arrived.IsZero() {
		c.a.noteAcks(c.arrived)
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.arrived = time.Now()
	}
	return n, err
}

func (c *agentConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.bytesOut.Add(int64(n))
	if seq := c.shipSeq.Load(); seq != 0 {
		c.a.tr.add("transport.conn_write", start, time.Now(), int(c.shipSpan.Load()), c.a.id, seq)
	}
	return n, err
}

// runEpoch runs and ships epoch a.next, due at the given time.
func (a *agent) runEpoch(due time.Time) error {
	cb, n := a.pool.take(a.next)
	a.next++
	seq := a.ship.Seq() + 1
	a.mu.Lock()
	a.epochs = append(a.epochs, epochRecord{due: due, records: n})
	a.mu.Unlock()

	start := time.Now()
	res, err := a.src.RunEpochColumnar(cb)
	if err != nil {
		return fmt.Errorf("agent %d epoch %d: %w", a.id, seq, err)
	}
	ran := time.Now()
	root := a.tr.reserve()
	a.conn.shipSpan.Store(int64(root))
	a.conn.shipSeq.Store(seq)
	before := a.conn.bytesOut.Load()
	err = a.ship.ShipEpoch(res)
	shipped := time.Now()
	a.conn.shipSeq.Store(0)
	if err != nil {
		return fmt.Errorf("agent %d epoch %d: %w", a.id, seq, err)
	}
	a.mu.Lock()
	e := &a.epochs[seq]
	e.bytes = a.conn.bytesOut.Load() - before
	e.used = res.BudgetUsedFrac
	for i := range res.Stats {
		e.drained += res.Stats[i].Drained
	}
	a.mu.Unlock()
	a.tr.add("core.run_epoch", start, ran, -1, a.id, seq)
	a.tr.fill(root, "transport.ship_epoch", ran, shipped, -1, a.id, seq)
	return nil
}

// spListener wraps the SP's listener on traced runs so accepted
// connections time the last-byte-read → ack-written interval.
type spListener struct {
	net.Listener
	tr *tracer
}

func (l *spListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &spConn{Conn: c, tr: l.tr}, nil
}

// spConn is the SP side of one agent connection on a traced run. Reads
// come from the connection's HandleConn goroutine, ack writes from it or
// from the recovery manager's goroutine, hence the atomic.
type spConn struct {
	net.Conn
	tr       *tracer
	lastRead atomic.Int64 // unix nanos of the last non-empty Read
}

func (c *spConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.lastRead.Store(time.Now().UnixNano())
	}
	return n, err
}

// Write carries exactly one ack frame (the receiver flushes after each).
// The span runs from the last byte read before it to the write's return;
// under manual acks that read may belong to a later epoch than the one
// acked, which understates the interval when epochs overlap.
func (c *spConn) Write(p []byte) (int, error) {
	read := c.lastRead.Load()
	n, err := c.Conn.Write(p)
	if src, seq, ok := ackOf(p); ok && seq != 0 {
		c.tr.add("transport.recv_to_ack", time.Unix(0, read), time.Now(), -1, src, seq)
	}
	return n, err
}

// ackOf decodes the (source, seq) of the ack frame in p.
func ackOf(p []byte) (uint32, uint64, bool) {
	f, err := wire.NewFrameReader(bytes.NewReader(p)).ReadFrame()
	if err != nil || f.StreamID != wire.ControlStreamID {
		return 0, 0, false
	}
	for _, rec := range f.Records {
		if ack, ok := rec.Data.(*wire.Ack); ok {
			return ack.Source, ack.Seq, true
		}
	}
	return 0, 0, false
}

// timedReplicator is the checkpoint.Replicator the traced run installs
// around the publisher: it times PublishSnapshot and WaitDurable as
// children of the advance that caused them and keeps the snapshots for
// the offline save and apply replays.
type timedReplicator struct {
	pub    *ha.Publisher
	tr     *tracer
	parent atomic.Int64 // span index of the advance in progress

	mu    sync.Mutex
	snaps []*checkpoint.Snapshot
}

// maxKeptSnapshots bounds the snapshots kept for the save/apply replay:
// two full chains' worth.
const maxKeptSnapshots = 2*checkpoint.DefaultMaxChain + 2

func (r *timedReplicator) PublishRows(rows telemetry.Batch) { r.pub.PublishRows(rows) }

func (r *timedReplicator) PublishSnapshot(id uint64, snap *checkpoint.Snapshot) {
	start := time.Now()
	r.pub.PublishSnapshot(id, snap)
	r.tr.add("ha.publish", start, time.Now(), int(r.parent.Load()), 0, snap.Seq)
	r.mu.Lock()
	// Keep a run of consecutive snapshots that starts at a full one.
	if len(r.snaps) < maxKeptSnapshots && (len(r.snaps) > 0 || !snap.Delta) {
		r.snaps = append(r.snaps, snap)
	}
	r.mu.Unlock()
}

func (r *timedReplicator) WaitDurable(id uint64, timeout time.Duration) bool {
	start := time.Now()
	ok := r.pub.WaitDurable(id, timeout)
	r.tr.add("ha.wait_durable", start, time.Now(), int(r.parent.Load()), 0, id)
	return ok
}

// captureLimit bounds the traffic capture the layer replay reads: a few
// hundred epochs of the largest workload.
const captureLimit = 64 << 20

// gatedCapture is the traffic recorder's sink on traced runs. The
// recorder taps a connection for its whole life, but the replay wants
// steady-state epochs only and a bounded buffer, so the sink keeps each
// connection's first frame (the hello TrafficConn.Epochs needs), drops
// frames until armed, and stops at the limit. It finds the records by
// parsing the capture format — the magic, then (uvarint conn id, uvarint
// length, frame) records, what ReadTrafficCapture reads — so it does not
// depend on how the recorder splits the stream into Write calls.
type gatedCapture struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	limit int
	armed bool
	seen  map[uint64]bool

	magic int    // bytes of the magic still to come
	hdr   []byte // the bytes so far of a record's (conn id, length) header
	left  int    // bytes still to come of the frame in progress
	keep  bool   // whether the frame in progress is kept
}

// newGatedCapture allocates the whole buffer up front: growing it under
// the recorder's lock would stall the connection being measured.
func newGatedCapture() *gatedCapture {
	g := &gatedCapture{limit: captureLimit, seen: map[uint64]bool{}, magic: len(transport.TrafficMagic)}
	g.buf.Grow(captureLimit + 4<<20)
	return g
}

func (g *gatedCapture) arm() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.armed = true
	g.mu.Unlock()
}

func (g *gatedCapture) Write(p []byte) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for rest := p; len(rest) > 0; {
		switch {
		case g.magic > 0:
			n := min(g.magic, len(rest))
			g.buf.Write(rest[:n])
			g.magic -= n
			rest = rest[n:]
		case g.left > 0:
			n := min(g.left, len(rest))
			if g.keep {
				g.buf.Write(rest[:n])
			}
			g.left -= n
			rest = rest[n:]
		default:
			g.hdr = append(g.hdr, rest[0])
			rest = rest[1:]
			conn, size, ok, err := recordHeader(g.hdr)
			if err != nil {
				return 0, err
			}
			if !ok {
				continue
			}
			g.keep = !g.seen[conn] || (g.armed && g.buf.Len() < g.limit)
			g.seen[conn] = true
			if g.keep {
				g.buf.Write(g.hdr)
			}
			g.hdr, g.left = g.hdr[:0], int(size)
		}
	}
	return len(p), nil
}

// recordHeader parses a capture record's (conn id, length) header. ok is
// false while b is only the start of one.
func recordHeader(b []byte) (conn, size uint64, ok bool, err error) {
	conn, k := binary.Uvarint(b)
	if k == 0 {
		return 0, 0, false, nil
	}
	k2 := -1
	if k > 0 {
		size, k2 = binary.Uvarint(b[k:])
	}
	if k2 == 0 {
		return 0, 0, false, nil
	}
	if k2 < 0 || size > transport.MaxTrafficFrame {
		return 0, 0, false, fmt.Errorf("traffic capture: malformed record header % x", b)
	}
	return conn, size, true, nil
}

func (g *gatedCapture) bytes() []byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.buf.Bytes()
}
