package ha

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"jarvis/internal/checkpoint"
	"jarvis/internal/core"
	"jarvis/internal/obs"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/transport"
	"jarvis/internal/wire"
)

// reconnectDelay paces the standby's redial loop while the primary is
// unreachable.
const reconnectDelay = 100 * time.Millisecond

// Standby is the warm-standby half of the HA pair. It attaches to the
// primary's replication listener, folds the replicated snapshot stream
// into an in-memory state (exactly the store's base + delta chain
// reconstruction), persists each snapshot to its own local store,
// mirrors the primary's result log, and keeps a shadow SPEngine
// continuously restored to the newest replicated cut. Promote turns the
// warm state into a serving primary without touching disk.
type Standby struct {
	proc     *core.Processor
	engine   *stream.SPEngine
	store    *checkpoint.Store
	rlog     *checkpoint.ResultLog
	counters *obs.Registry

	mu     sync.Mutex
	folded *checkpoint.Snapshot
	// shadowStale: folded is ahead of the shadow engine. serveConn acks a
	// snapshot once it is folded and stored and reloads the shadow after;
	// whoever needs the shadow in between (Promote) reloads it first.
	shadowStale   bool
	lastPrimaryID uint64 // newest primary store id applied
	primaryTerm   uint64 // newest term seen in the replication stream
	connected     bool
	lastContact   time.Time
	promoted      bool
	conn          net.Conn

	// beforeReload, when a test sets it, runs on the replication
	// goroutine between a snapshot's ack and its shadow reload, outside mu.
	beforeReload func()
}

// NewStandby wires a standby over the node's shadow processor and a
// local durable directory (snapshot store + mirrored result log). The
// processor must be built from the same query as the primary's, so
// replicated stage ids line up; shadow loads go through
// Processor.LoadSnapshot. counters may be nil.
func NewStandby(proc *core.Processor, dir string, counters *obs.Registry) (*Standby, error) {
	if counters == nil {
		counters = obs.NewRegistry()
	}
	store, err := checkpoint.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	rlog, err := checkpoint.OpenResultLog(filepath.Join(dir, "results.log"))
	if err != nil {
		return nil, err
	}
	s := &Standby{
		proc: proc, engine: proc.Engine(), store: store, rlog: rlog, counters: counters,
		lastContact: time.Now(),
	}
	// Warm the shadow from whatever a previous incarnation replicated;
	// the primary id of that state is unknown, so the next attach resyncs
	// in full — this only shortens the promotion path if the primary is
	// already gone when we come up. The persisted term survives the
	// restart, so a re-promoted standby still supersedes the old primary.
	if snap, ok, err := store.Latest(); err == nil && ok {
		s.folded = snap
		s.primaryTerm = snap.Term
		if lerr := s.loadShadow(snap); lerr != nil {
			counters.Inc(CtrRestoreErrors)
		}
	}
	return s, nil
}

// Engine returns the shadow engine (bind the agent-facing receiver to
// it so promotion serves the warm state).
func (s *Standby) Engine() *stream.SPEngine { return s.engine }

// ResultLog returns the mirrored result log.
func (s *Standby) ResultLog() *checkpoint.ResultLog { return s.rlog }

// Store returns the standby's local snapshot store.
func (s *Standby) Store() *checkpoint.Store { return s.store }

// Counters exposes the standby's health counters.
func (s *Standby) Counters() *obs.Registry { return s.counters }

// Connected reports whether a replication connection is live.
func (s *Standby) Connected() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.connected
}

// DownFor returns how long the replication link has been down (0 while
// connected) — the signal takeover policies watch.
func (s *Standby) DownFor() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.connected {
		return 0
	}
	return time.Since(s.lastContact)
}

// PrimaryTerm returns the newest fencing term observed from the primary.
func (s *Standby) PrimaryTerm() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.primaryTerm
}

// LastApplied returns the newest primary snapshot id applied.
func (s *Standby) LastApplied() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastPrimaryID
}

// Run dials the primary's replication address and consumes the
// replication stream, reconnecting until ctx is cancelled or the standby
// is promoted. Each (re)attach announces the mirror's result-log
// watermark so the primary only re-sends the missing log tail, and
// receives a full state resync.
func (s *Standby) Run(ctx context.Context, primaryAddr string) {
	for ctx.Err() == nil && !s.isPromoted() {
		conn, err := net.DialTimeout("tcp", primaryAddr, time.Second)
		if err != nil {
			select {
			case <-ctx.Done():
				return
			case <-time.After(reconnectDelay):
			}
			continue
		}
		s.serveConn(ctx, conn)
		select {
		case <-ctx.Done():
			return
		case <-time.After(reconnectDelay):
		}
	}
}

func (s *Standby) isPromoted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.promoted
}

// serveConn runs one replication connection to completion.
func (s *Standby) serveConn(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	s.mu.Lock()
	if s.promoted {
		s.mu.Unlock()
		return
	}
	s.conn = conn
	hello, err := replHelloFrame(s.lastPrimaryID, s.rlog.EmittedWM())
	s.mu.Unlock()
	if err != nil {
		return
	}
	if _, err := conn.Write(hello); err != nil {
		return
	}
	s.setConnected(true)
	defer s.setConnected(false)
	stop := context.AfterFunc(ctx, func() { _ = conn.Close() })
	defer stop()
	fr := wire.NewFrameReader(conn)
	for {
		f, err := fr.ReadRows()
		if err != nil {
			return
		}
		s.touch()
		switch {
		case f.StreamID == wire.ReplRowsStreamID:
			if _, err := s.appendMirror(f.Records); err != nil {
				s.counters.Inc(CtrRestoreErrors)
				return
			}
		case f.StreamID == wire.ControlStreamID:
			for _, rec := range f.Records {
				rep, ok := rec.Data.(*wire.ReplSnapshot)
				if !ok {
					continue
				}
				// Folded and in the local store is what the primary's
				// WaitDurable waits for, so the ack leaves now; the shadow
				// reload — O(total state) — follows it, off the ack path.
				s.mu.Lock()
				err := s.foldLocked(rep)
				s.mu.Unlock()
				if err == nil {
					if ack, aerr := replAckFrame(rep.ID, rep.Seq); aerr == nil {
						if _, werr := conn.Write(ack); werr != nil {
							return
						}
					}
					if s.beforeReload != nil {
						s.beforeReload()
					}
					s.mu.Lock()
					err = s.reloadShadowLocked()
					s.mu.Unlock()
				}
				if err != nil {
					s.counters.Inc(CtrRestoreErrors)
					// Desync (e.g. a delta whose base we never saw): drop
					// the connection and re-attach for a full resync.
					s.mu.Lock()
					s.lastPrimaryID = 0
					s.mu.Unlock()
					return
				}
			}
		}
	}
}

func (s *Standby) setConnected(v bool) {
	s.mu.Lock()
	s.connected = v
	s.lastContact = time.Now()
	if !v {
		s.conn = nil
	}
	s.mu.Unlock()
}

func (s *Standby) touch() {
	s.mu.Lock()
	s.lastContact = time.Now()
	s.mu.Unlock()
}

// appendMirror folds mirrored result rows into the local result log
// (its watermark drops rows the mirror already holds). After promotion
// the log belongs to the new primary's recovery manager, so late frames
// still buffered on the dying replication connection are discarded.
func (s *Standby) appendMirror(rows telemetry.Batch) (telemetry.Batch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return nil, nil
	}
	kept, err := s.rlog.Append(rows)
	if err == nil {
		s.counters.Add(CtrRowsMirrored, int64(len(kept)))
	}
	return kept, err
}

// ApplySnapshot applies one replicated snapshot: decode, fold into the
// in-memory state, persist to the local store, and reload the shadow
// engine so it mirrors the newest replicated cut. Already-applied ids
// (duplicates around an attach resync) are skipped; a delta whose base
// was never applied is a desync error.
func (s *Standby) ApplySnapshot(rep *wire.ReplSnapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.foldLocked(rep); err != nil {
		return err
	}
	return s.reloadShadowLocked()
}

// foldLocked is the durable half of applying a snapshot: decoded, folded
// into the in-memory state and written — the bytes that arrived, under a
// local header — to the local store. It leaves the shadow reload owed.
func (s *Standby) foldLocked(rep *wire.ReplSnapshot) error {
	if s.promoted {
		// Promote closed the replication connection, but its reader may
		// still drain already-buffered frames; loading them now would
		// reset the live serving engine out from under the failed-over
		// agents.
		return nil
	}
	if rep.ID <= s.lastPrimaryID {
		return nil
	}
	if rep.Term > s.primaryTerm {
		s.primaryTerm = rep.Term
	}
	snap, err := s.store.Decode(rep.Data)
	if err != nil {
		return fmt.Errorf("ha: decode replicated snapshot %d: %w", rep.ID, err)
	}
	if rep.Delta {
		if s.folded == nil || rep.BaseID != s.lastPrimaryID {
			return fmt.Errorf("ha: delta %d chains onto %d, have %d", rep.ID, rep.BaseID, s.lastPrimaryID)
		}
		s.folded = checkpoint.ApplyDelta(s.folded, snap)
	} else {
		s.folded = snap
	}
	s.lastPrimaryID = rep.ID
	s.shadowStale = true
	if err := s.saveLocalLocked(snap, rep.Delta); err != nil {
		return err
	}
	s.counters.Inc(CtrSnapshotsApplied)
	return nil
}

// reloadShadowLocked brings the shadow engine up to folded when a fold
// left it behind. After promotion the engine is serving and stays as
// Promote adopted it.
func (s *Standby) reloadShadowLocked() error {
	if !s.shadowStale || s.promoted {
		return nil
	}
	if err := s.loadShadow(s.folded); err != nil {
		return fmt.Errorf("ha: refresh shadow engine: %w", err)
	}
	s.shadowStale = false
	return nil
}

// saveLocalLocked persists a replicated snapshot in the standby's own
// store, through the store's chain — the same base/delta bound, failed-
// save rule and compaction as the primary's. A replicated base restarts
// the local chain; a delta chains onto the previous local save (the
// replication stream is linear), or re-bases on the folded full state
// when the chain says a base is due.
func (s *Standby) saveLocalLocked(snap *checkpoint.Snapshot, delta bool) error {
	chain := s.store.Chain()
	if !delta {
		chain.Reset()
	}
	// A copy: the local header (Term here, BaseID in Chain.Save) differs
	// from the one that arrived, the body — and the bytes snap remembers
	// for it — does not.
	toSave := *snap
	if chain.Next() {
		toSave = s.folded.Full()
	}
	toSave.Term = s.primaryTerm
	if _, err := chain.Save(&toSave); err != nil {
		return fmt.Errorf("ha: save replicated snapshot locally: %w", err)
	}
	return nil
}

// loadShadow rebuilds the shadow engine from a folded snapshot. The
// rebuild is O(total state) even for a small delta: delta rows carry a
// group's full superseding state, and the engine's merge path *adds*
// partials, so absorbing a delta onto a warm engine would double-count
// — incremental apply needs a replace-group operator mode (ROADMAP HA
// follow-on). The cost is standby-side only and off the primary's epoch
// path.
func (s *Standby) loadShadow(snap *checkpoint.Snapshot) error {
	wms := make(map[uint32]int64, len(snap.Sources))
	for src, st := range snap.Sources {
		wms[src] = st.Watermark
	}
	return s.proc.LoadSnapshot(snap.Stages, wms)
}

// NextTerm returns the fencing term a promotion from this standby must
// use: past every term the dead primary could have acked to an agent.
func (s *Standby) NextTerm() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	term := s.primaryTerm
	if term < 1 {
		term = 1
	}
	return term + 1
}

// Promote turns the warm standby into a serving primary: the shadow
// engine (already restored to the newest replicated cut) is adopted
// as-is, the receiver's dedup frontiers resume from the replicated
// per-source sequences — so failed-over agents replay exactly the epochs
// replication did not cover — and a recovery manager over the local
// store and mirrored result log continues checkpointing and exactly-once
// emission where the primary left off. Stop feeding Run's connection
// first (it refuses new connections once promoted). every is the new
// primary's snapshot cadence.
func (s *Standby) Promote(rc *transport.Receiver, every int) (*checkpoint.SPRecovery, error) {
	s.mu.Lock()
	if s.promoted {
		s.mu.Unlock()
		return nil, fmt.Errorf("ha: already promoted")
	}
	// A snapshot acked but not yet loaded: the engine adopted below must
	// hold every cut the primary was told is durable.
	if err := s.reloadShadowLocked(); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.promoted = true
	if s.conn != nil {
		_ = s.conn.Close()
	}
	folded := s.folded
	s.mu.Unlock()
	if folded != nil {
		for src, st := range folded.Sources {
			rc.RegisterSource(src)
			rc.SetApplied(src, st.AppliedSeq)
		}
	}
	rm := checkpoint.NewSPRecovery(s.store, s.rlog, s.engine, rc, every)
	if folded != nil {
		rm.Prime(folded)
	}
	// The new primary's snapshots carry the promoted term, so even its
	// own later restarts keep superseding the old primary.
	rm.SetTerm(s.NextTerm())
	s.counters.Inc(CtrFailovers)
	return rm, nil
}
