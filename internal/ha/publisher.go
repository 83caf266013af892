package ha

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"jarvis/internal/checkpoint"
	"jarvis/internal/obs"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
)

// mirrorRowChunk bounds one mirrored result-log frame during an attach
// resync, so a large log tail streams in digestible frames.
const mirrorRowChunk = 8192

// subQueueDepth bounds one standby connection's unsent publishes; a
// standby that falls further behind is dropped and re-attaches with a
// full resync instead of holding a growing buffer on the primary.
const subQueueDepth = 256

// Publisher is the primary-side half of snapshot replication: it
// implements checkpoint.Replicator, fanning every saved snapshot and
// every emitted result batch out to the attached standbys, and serves
// the attach protocol (full folded state + result-log tail) on a
// dedicated listener. All methods are safe for concurrent use.
type Publisher struct {
	store    *checkpoint.Store
	logPath  string
	counters *obs.Registry

	mu         sync.Mutex
	subs       map[*subscriber]struct{}
	term       uint64
	lastPubID  uint64 // newest published snapshot's store id
	lastPubSeq uint64 // ... and its progress measure (applied epochs)
	// wake is what a blocked WaitDurable waits on; wakeLocked closes it
	// when an ack lands or a standby leaves. nil while nobody waits.
	wake chan struct{}
}

// subscriber is one attached standby connection.
type subscriber struct {
	conn    net.Conn
	ch      chan []byte
	closed  bool
	ackedID uint64 // newest snapshot id the standby confirmed durable
	ackSeq  uint64
}

// NewPublisher creates a replication publisher over the primary's
// snapshot store and result-log path, stamping term into every
// replicated snapshot. counters may be nil.
func NewPublisher(store *checkpoint.Store, logPath string, term uint64, counters *obs.Registry) *Publisher {
	if counters == nil {
		counters = obs.NewRegistry()
	}
	if term < 1 {
		term = 1
	}
	// Seed the lag gauge so a replication-enabled primary exposes the
	// series from startup, not only after the first publish or attach.
	counters.Set(GaugeReplLagEpochs, 0)
	return &Publisher{
		store: store, logPath: logPath, term: term, counters: counters,
		subs: make(map[*subscriber]struct{}),
	}
}

// Counters exposes the publisher's health counters.
func (p *Publisher) Counters() *obs.Registry { return p.counters }

// Serve accepts standby replication connections until the listener
// closes or ctx is cancelled.
func (p *Publisher) Serve(ctx context.Context, ln net.Listener) error {
	go func() {
		<-ctx.Done()
		_ = ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("ha: replication accept: %w", err)
		}
		go p.handle(conn)
	}
}

// handle runs one standby connection: attach resync, then live feed out
// and acks in.
func (p *Publisher) handle(conn net.Conn) {
	fr := wire.NewFrameReader(conn)
	hello, err := readReplHello(fr)
	if err != nil {
		_ = conn.Close()
		return
	}
	// The stream carries snapshot bytes as encoded, and a v3 float column
	// read as planes decodes without error into wrong sums: a standby of
	// another build is refused before anything is queued for it.
	if hello.Version != wire.CurrentWireVersion {
		obs.Emit(obs.Decision{
			Kind: "replication_refused", Cause: "standby_wire_version", Term: p.term,
			Detail: fmt.Sprintf("standby decodes wire v%d, this primary encodes v%d", hello.Version, wire.CurrentWireVersion),
		})
		_ = conn.Close()
		return
	}
	sub, err := p.attach(conn, hello)
	if err != nil {
		_ = conn.Close()
		return
	}
	p.counters.Inc(CtrStandbyAttaches)
	go p.writeLoop(sub)
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			p.detach(sub)
			return
		}
		if f.StreamID != wire.ControlStreamID {
			continue
		}
		for _, rec := range f.Records {
			if ack, ok := rec.Data.(*wire.ReplAck); ok {
				p.noteAck(sub, ack)
			}
		}
	}
}

func readReplHello(fr *wire.FrameReader) (*wire.ReplHello, error) {
	f, err := fr.ReadFrame()
	if err != nil {
		return nil, err
	}
	if f.StreamID != wire.ControlStreamID || len(f.Records) != 1 {
		return nil, fmt.Errorf("ha: replication connection did not open with a hello")
	}
	hello, ok := f.Records[0].Data.(*wire.ReplHello)
	if !ok {
		return nil, fmt.Errorf("ha: replication connection opened with %T", f.Records[0].Data)
	}
	return hello, nil
}

// attach registers a new standby under the publish lock: the resync
// payload (full folded state + the result-log rows past the standby's
// mirror watermark) is assembled and queued before any later publish can
// interleave, so the standby observes one consistent prefix. Publishes
// committed to the store but not yet fanned out may be re-sent right
// after the resync; the standby skips already-applied ids and its result
// log deduplicates by watermark.
//
// Holding the lock across the disk reads stalls concurrent publishes
// (and, in sync-checkpoint mode, the epoch loop) for the duration of the
// resync assembly — accepted because attaches are rare (standby start or
// reconnect) and the alternative is a publish-fence protocol.
func (p *Publisher) attach(conn net.Conn, hello *wire.ReplHello) (*subscriber, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	snap, id, ok, err := p.store.LatestWithID()
	if err != nil {
		return nil, err
	}
	var resync [][]byte
	if ok {
		// The folded chain is a complete state: replicate it as a full
		// snapshot standing in for id, so live deltas chain onto it.
		full := snap.Full()
		data, err := encodeSnapshot(&full)
		if err != nil {
			return nil, err
		}
		frame, err := replSnapshotFrame(&wire.ReplSnapshot{
			ID: id, Seq: snap.Seq, Term: p.term, Data: data,
		})
		if err != nil {
			return nil, err
		}
		resync = append(resync, frame)
	}
	tail, err := p.logTail(hello.LogWM)
	if err != nil {
		return nil, err
	}
	resync = append(resync, tail...)
	// The queue is sized to hold the whole resync payload up front (a
	// long result-log tail can exceed the steady-state depth), plus
	// subQueueDepth of headroom for live publishes.
	sub := &subscriber{conn: conn, ch: make(chan []byte, len(resync)+subQueueDepth)}
	for _, frame := range resync {
		sub.ch <- frame
	}
	p.subs[sub] = struct{}{}
	p.updateLagLocked()
	return sub, nil
}

// logTail encodes the primary's result-log rows newer than wm as
// mirrored-row frames.
func (p *Publisher) logTail(wm int64) ([][]byte, error) {
	rows, err := checkpoint.ReadResultLog(p.logPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var fresh telemetry.Batch
	for _, rec := range rows {
		if rec.Time > wm {
			fresh = append(fresh, rec)
		}
	}
	var out [][]byte
	for len(fresh) > 0 {
		n := len(fresh)
		if n > mirrorRowChunk {
			n = mirrorRowChunk
		}
		frame, err := replRowsFrame(fresh[:n])
		if err != nil {
			return nil, err
		}
		out = append(out, frame)
		fresh = fresh[n:]
	}
	return out, nil
}

// writeLoop drains one standby's queue onto its connection.
func (p *Publisher) writeLoop(sub *subscriber) {
	for frame := range sub.ch {
		if _, err := sub.conn.Write(frame); err != nil {
			p.detach(sub)
			// Keep draining so a concurrent broadcast never blocks; the
			// channel closes under the publish lock in detach.
			continue
		}
	}
}

func (p *Publisher) detach(sub *subscriber) {
	p.mu.Lock()
	if !sub.closed {
		p.dropLocked(sub)
		p.updateLagLocked()
	}
	p.mu.Unlock()
	_ = sub.conn.Close()
}

// dropLocked unregisters a standby and releases whoever waits on its ack.
func (p *Publisher) dropLocked(sub *subscriber) {
	sub.closed = true
	close(sub.ch)
	delete(p.subs, sub)
	p.wakeLocked()
}

// wakeLocked makes a blocked WaitDurable look again.
func (p *Publisher) wakeLocked() {
	if p.wake != nil {
		close(p.wake)
		p.wake = nil
	}
}

func (p *Publisher) noteAck(sub *subscriber, ack *wire.ReplAck) {
	p.mu.Lock()
	if ack.ID > sub.ackedID {
		sub.ackedID = ack.ID
	}
	if ack.Seq > sub.ackSeq {
		sub.ackSeq = ack.Seq
	}
	p.updateLagLocked()
	p.wakeLocked()
	p.mu.Unlock()
}

// updateLagLocked refreshes the replication-lag gauge: the primary's
// newest published progress minus the slowest attached standby's acked
// progress, in epochs.
func (p *Publisher) updateLagLocked() {
	if len(p.subs) == 0 {
		p.counters.Set(GaugeReplLagEpochs, 0)
		return
	}
	var minAck uint64 = ^uint64(0)
	for sub := range p.subs {
		if sub.ackSeq < minAck {
			minAck = sub.ackSeq
		}
	}
	lag := int64(0)
	if p.lastPubSeq > minAck {
		lag = int64(p.lastPubSeq - minAck)
	}
	p.counters.Set(GaugeReplLagEpochs, lag)
}

// broadcastLocked queues one encoded frame on every attached standby;
// one that has fallen a full queue behind is dropped — its connection is
// closed so both ends notice and the standby re-attaches with a resync.
func (p *Publisher) broadcastLocked(frame []byte) {
	for sub := range p.subs {
		select {
		case sub.ch <- frame:
		default:
			p.dropLocked(sub)
			_ = sub.conn.Close()
		}
	}
}

// PublishRows implements checkpoint.Replicator: mirror freshly emitted
// result rows to every standby.
func (p *Publisher) PublishRows(rows telemetry.Batch) {
	frame, err := replRowsFrame(rows)
	if err != nil {
		return
	}
	p.mu.Lock()
	p.broadcastLocked(frame)
	p.mu.Unlock()
	p.counters.Add(CtrRowsMirrored, int64(len(rows)))
}

// PublishSnapshot implements checkpoint.Replicator: replicate one saved
// snapshot (full or delta) under its store id.
func (p *Publisher) PublishSnapshot(id uint64, snap *checkpoint.Snapshot) {
	data, err := encodeSnapshot(snap)
	if err != nil {
		return
	}
	p.mu.Lock()
	frame, err := replSnapshotFrame(&wire.ReplSnapshot{
		ID: id, BaseID: snap.BaseID, Seq: snap.Seq, Term: p.term, Delta: snap.Delta, Data: data,
	})
	if err != nil {
		p.mu.Unlock()
		return
	}
	p.lastPubID, p.lastPubSeq = id, snap.Seq
	p.broadcastLocked(frame)
	p.updateLagLocked()
	p.mu.Unlock()
	p.counters.Inc(CtrSnapshotsPublished)
}

// WaitDurable implements checkpoint.Replicator: block until every
// attached standby acked snapshot id, or no standby is attached, or the
// timeout expires. SPRecovery gates agent acks on it so pruned epochs
// are always recoverable from a standby while one is attached. It sleeps
// on the publisher's wake-up — an ack, a detach, a dropped standby — and
// looks again, so it returns as the ack arrives, not a poll period later.
//
// With zero standbys attached acks proceed on primary durability alone —
// warm-standby replication is asynchronous by design, and stalling every
// agent because the standby is down (or not started yet) would overflow
// their bounded replay buffers and turn a durability downgrade into
// actual loss. The degraded window is made visible instead:
// CtrAcksWithoutStandby counts every snapshot acked that way.
func (p *Publisher) WaitDurable(id uint64, timeout time.Duration) bool {
	var expired <-chan time.Time // armed by the first look that has to wait
	for {
		p.mu.Lock()
		attached, durable := len(p.subs), true
		for sub := range p.subs {
			if sub.ackedID < id {
				durable = false
				break
			}
		}
		if !durable && p.wake == nil {
			p.wake = make(chan struct{})
		}
		wake := p.wake
		p.mu.Unlock()
		if durable {
			if attached == 0 {
				p.counters.Inc(CtrAcksWithoutStandby)
			}
			return true
		}
		if expired == nil {
			t := time.NewTimer(timeout)
			defer t.Stop()
			expired = t.C
		}
		select {
		case <-wake:
		case <-expired:
			return false
		}
	}
}

// Standbys reports how many standbys are currently attached.
func (p *Publisher) Standbys() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.subs)
}

// Lag returns the current replication-lag gauge in epochs.
func (p *Publisher) Lag() int64 { return p.counters.Get(GaugeReplLagEpochs) }

// Close drops every attached standby.
func (p *Publisher) Close() error {
	p.mu.Lock()
	subs := make([]*subscriber, 0, len(p.subs))
	for sub := range p.subs {
		subs = append(subs, sub)
	}
	p.mu.Unlock()
	for _, sub := range subs {
		p.detach(sub)
	}
	return nil
}

// encodeSnapshot serializes a snapshot to the byte string a
// wire.ReplSnapshot carries.
func encodeSnapshot(snap *checkpoint.Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// replSnapshotFrame encodes one ReplSnapshot control frame.
func replSnapshotFrame(rep *wire.ReplSnapshot) ([]byte, error) {
	rec := telemetry.Record{WireSize: 40 + len(rep.Data), Data: rep}
	return encodeFrame(wire.Frame{StreamID: wire.ControlStreamID, Records: telemetry.Batch{rec}})
}

// replRowsFrame encodes one mirrored result-row frame.
func replRowsFrame(rows telemetry.Batch) ([]byte, error) {
	return encodeFrame(wire.Frame{StreamID: wire.ReplRowsStreamID, Records: rows})
}

// frameEncoder is the reusable state of encodeFrame. A frame writer is
// tens of kilobytes of tables and buffers: too much to build and zero
// for every 50-byte ack.
type frameEncoder struct {
	buf bytes.Buffer
	fw  *wire.FrameWriter
}

var frameEncoders = sync.Pool{New: func() any {
	e := new(frameEncoder)
	e.fw = wire.NewFrameWriter(&e.buf)
	return e
}}

// encodeFrame renders one replication frame: mirrored rows go columnar,
// control records stay row frames.
func encodeFrame(f wire.Frame) ([]byte, error) {
	e := frameEncoders.Get().(*frameEncoder)
	defer frameEncoders.Put(e)
	e.buf.Reset()
	e.fw.Reset(&e.buf)
	if err := e.fw.WriteFrame(f); err != nil {
		return nil, err
	}
	if err := e.fw.Flush(); err != nil {
		return nil, err
	}
	return bytes.Clone(e.buf.Bytes()), nil
}

// replAckFrame encodes one ReplAck control frame (standby side).
func replAckFrame(id, seq uint64) ([]byte, error) {
	rec := telemetry.Record{WireSize: 33, Data: &wire.ReplAck{ID: id, Seq: seq}}
	return encodeFrame(wire.Frame{StreamID: wire.ControlStreamID, Records: telemetry.Batch{rec}})
}

// replHelloFrame encodes the standby's attach hello.
func replHelloFrame(lastID uint64, logWM int64) ([]byte, error) {
	rec := telemetry.Record{WireSize: 33, Data: &wire.ReplHello{LastID: lastID, LogWM: logWM, Version: wire.CurrentWireVersion}}
	return encodeFrame(wire.Frame{StreamID: wire.ControlStreamID, Records: telemetry.Batch{rec}})
}

var _ checkpoint.Replicator = (*Publisher)(nil)
