package checkpoint

import (
	"fmt"
	"sync"
	"time"

	"jarvis/internal/obs"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/transport"
)

// DefaultEvery is the default snapshot cadence in epochs: with the
// paper's 1 s epochs, a durable snapshot roughly every half minute.
// Full-state snapshots cost a few ms at evaluation scale (see
// BenchmarkCheckpointSave), so this cadence amortizes the overhead to
// ~2-3% of engine epoch time, and the durable shipper's default replay
// buffer (DefaultMaxPending, 2× this cadence) keeps every epoch between
// snapshots replayable. With delta snapshots (every snapshot after a
// chain base ships only dirtied state, see BenchmarkDeltaSnapshotSave)
// the cadence can drop to every epoch: `-checkpoint-every 1`.
const DefaultEvery = 32

// Agent is the source-side surface the recovery manager needs. Both
// *stream.Pipeline and *core.Source implement it.
type Agent interface {
	// Capture copies the stateful operators' open-window state
	// non-destructively: everything (full), or only what was dirtied since
	// the previous capture. Either starts a new dirty generation.
	Capture(full bool) stream.Checkpoint
	// RestoreCheckpoint folds a checkpoint back into the operators and
	// resumes the watermark.
	RestoreCheckpoint(cp *stream.Checkpoint) error
	// LoadFactors/SetLoadFactors capture and restore proxy routing, so a
	// restarted agent replays epochs with identical routing decisions.
	LoadFactors() []float64
	SetLoadFactors([]float64) error
}

// AgentRecovery takes epoch-aligned snapshots of a source agent — its
// pipeline state, load factors, and the durable shipper's sequence
// counters and replay buffer — and restores the newest one on startup.
//
// Exactly-once across an agent restart: the agent resumes from snapshot
// epoch R, the driver re-feeds input from epoch R+1, and any epoch the
// crashed incarnation already shipped is discarded by the SP's sequence
// dedup. Re-run epochs must re-ship identical content for SP state to
// stay consistent, which holds when re-execution is deterministic from
// the snapshot: fixed load factors (restored from the snapshot) or
// adaptation disabled, and a budget that does not force mid-epoch
// drops. With -checkpoint-every 1 the re-run window is at most the
// single epoch in flight at the crash.
type AgentRecovery struct {
	saver
	store *Store
	every uint64
	agent Agent
	ship  *transport.DurableShipper
}

// NewAgentRecovery wires a recovery manager to an agent. every is the
// snapshot cadence in epochs (minimum 1); ship may be nil for agents
// that consume epochs in process. Which snapshots are full bases and
// which are deltas, and when the store compacts, is the store's Chain's
// decision.
func NewAgentRecovery(store *Store, every int, agent Agent, ship *transport.DurableShipper) *AgentRecovery {
	if every < 1 {
		every = 1
	}
	r := &AgentRecovery{store: store, every: uint64(every), agent: agent, ship: ship}
	r.do = r.save
	return r
}

// Restore loads the newest consistent snapshot into the agent (and the
// shipper's replay buffer) and returns the epoch to resume after. ok is
// false when the store is empty (fresh start: resume after epoch 0).
func (r *AgentRecovery) Restore() (resumeEpoch uint64, ok bool, err error) {
	snap, ok, err := r.store.Latest()
	if err != nil || !ok {
		return 0, false, err
	}
	if err := r.agent.RestoreCheckpoint(&snap.Checkpoint); err != nil {
		return 0, false, fmt.Errorf("checkpoint: restore agent state: %w", err)
	}
	if len(snap.Factors) > 0 {
		if err := r.agent.SetLoadFactors(snap.Factors); err != nil {
			return 0, false, fmt.Errorf("checkpoint: restore load factors: %w", err)
		}
	}
	if r.ship != nil {
		r.ship.RestoreState(snap.Seq, snap.Acked, snap.Pending)
		r.ship.SetTerm(snap.Term)
	}
	r.store.Chain().Reset()
	return snap.Seq, true, nil
}

// AfterEpoch snapshots the agent when the cadence is due. Call it after
// every RunEpoch+ShipEpoch pair with the epoch's sequence number.
func (r *AgentRecovery) AfterEpoch(epoch uint64) error {
	if err := r.takeDeferred(); err != nil {
		return err
	}
	if epoch%r.every != 0 {
		return nil
	}
	snap := &Snapshot{
		Checkpoint: r.agent.Capture(r.store.Chain().Next()),
		Seq:        epoch,
		Factors:    r.agent.LoadFactors(),
	}
	if r.ship != nil {
		// State() deep-copies the replay buffer, so the capture stays
		// consistent even while the async writer encodes it.
		snap.Seq, snap.Acked, snap.Pending = r.ship.State()
		snap.Term = r.ship.Term()
	}
	return r.submit(&saveJob{snap: snap}, false)
}

// save writes one captured agent snapshot through the chain. It runs on
// the caller's goroutine (sync mode) or the async writer's.
func (r *AgentRecovery) save(job *saveJob) error {
	snapStart := obs.Now()
	id, err := r.store.Chain().Save(job.snap)
	if id == 0 && err == nil {
		return nil // dropped: chained onto a failed save
	}
	obs.Since(obs.StageSnapshot, snapStart)
	if err != nil {
		return fmt.Errorf("checkpoint: save agent snapshot: %w", err)
	}
	return nil
}

// Replicator receives everything a warm-standby SP needs to mirror a
// primary: each durable snapshot as it is saved and each batch of result
// rows as it is emitted. internal/ha's Publisher implements it; the
// interface lives here so the recovery manager stays decoupled from the
// HA subsystem.
type Replicator interface {
	// PublishRows mirrors freshly emitted (durably logged) result rows.
	PublishRows(rows telemetry.Batch)
	// PublishSnapshot mirrors one just-saved snapshot under its store id.
	PublishSnapshot(id uint64, snap *Snapshot)
	// WaitDurable blocks until every attached standby has acknowledged
	// the snapshot (true), immediately when no standby is attached
	// (true), or until the timeout expires (false). Gating agent acks on
	// it guarantees a standby can always serve every pruned epoch.
	WaitDurable(id uint64, timeout time.Duration) bool
}

// DefaultReplAckTimeout bounds how long a snapshot save waits for the
// attached standby's ack before releasing the epoch anyway — unacked
// epochs then simply stay in the agents' replay buffers until a later
// snapshot is replicated.
const DefaultReplAckTimeout = 2 * time.Second

// SPRecovery takes epoch-aligned snapshots of a stream processor — the
// engine's stateful operators, per-source watermarks and applied epoch
// sequences — restores the newest one on startup, and routes emitted
// rows through the exactly-once result log. After each durable snapshot
// it acknowledges the covered epochs to the connected agents, which
// prune their replay buffers; epochs applied since the last snapshot
// stay replayable and are deduplicated by sequence when a restarted SP
// receives them again.
//
// With a Replicator attached the manager additionally mirrors every
// emitted row batch and every saved snapshot to the warm standby, and
// withholds agent acks until the standby confirms the covering snapshot
// durable — so failing over can never lose an epoch the agents already
// pruned. With the async writer enabled (SetAsync) the capture still
// happens on the epoch path (a consistent cut under Freeze) but the
// encode + durable save + replication wait run on a writer goroutine, so
// every-epoch checkpointing works even for probe workloads whose dirty
// set is the whole window state.
type SPRecovery struct {
	saver
	store  *Store
	log    *ResultLog
	engine *stream.SPEngine
	rc     *transport.Receiver
	every  uint64

	snapAt   uint64 // progress measure (sum of applied seqs) at last snapshot
	haveSnap bool

	repl       Replicator
	ackTimeout time.Duration

	termMu       sync.Mutex
	term         uint64 // fencing term stamped into snapshots
	restoredTerm uint64 // term recovered from the restored snapshot
}

// NewSPRecovery wires a recovery manager to an SP engine and its
// receiver. every is the snapshot cadence in applied epochs (minimum 1,
// summed across sources); log may be nil to skip result logging. The
// receiver is switched to manual (durability-gated) acks. Which
// snapshots are full bases and which are deltas of the engine's dirty
// state, and when the store compacts, is the store's Chain's decision.
func NewSPRecovery(store *Store, log *ResultLog, engine *stream.SPEngine, rc *transport.Receiver, every int) *SPRecovery {
	if every < 1 {
		every = 1
	}
	rc.SetManualAck(true)
	r := &SPRecovery{store: store, log: log, engine: engine, rc: rc, every: uint64(every)}
	r.do = r.saveAndAck
	return r
}

// SetReplicator attaches a warm-standby replicator: emitted rows and
// saved snapshots are mirrored to it, and agent acks wait (up to
// ackTimeout; 0 selects DefaultReplAckTimeout) for the standby to
// confirm each snapshot durable. Call before serving.
func (r *SPRecovery) SetReplicator(repl Replicator, ackTimeout time.Duration) {
	if ackTimeout <= 0 {
		ackTimeout = DefaultReplAckTimeout
	}
	r.repl = repl
	r.ackTimeout = ackTimeout
}

// SetTerm sets the HA fencing term stamped into every snapshot (it
// never regresses), so a restarted node resumes at the term it had
// reached rather than its configured default.
func (r *SPRecovery) SetTerm(t uint64) {
	r.termMu.Lock()
	defer r.termMu.Unlock()
	if t > r.term {
		r.term = t
	}
}

// RestoredTerm returns the fencing term carried by the restored
// snapshot (0 on a fresh store or pre-HA files). Callers raise their
// gate to max(configured, restored).
func (r *SPRecovery) RestoredTerm() uint64 { return r.restoredTerm }

// Prime marks snap — already loaded into the engine and receiver by the
// caller — as the recovery manager's starting point: the snapshot
// cadence resumes from its progress and the next save starts a fresh
// full chain. The HA standby uses it at promotion, where the warm shadow
// engine already holds the folded replicated state and a disk restore
// would double-apply it.
func (r *SPRecovery) Prime(snap *Snapshot) {
	var total uint64
	for _, st := range snap.Sources {
		total += st.AppliedSeq
	}
	r.snapAt = total
	r.haveSnap = true
	r.store.Chain().Reset()
	r.SetTerm(snap.Term)
}

// Restore loads the newest consistent snapshot into the engine and the
// receiver's dedup state. ok is false on a fresh store.
func (r *SPRecovery) Restore() (ok bool, err error) {
	snap, ok, err := r.store.Latest()
	if err != nil || !ok {
		return false, err
	}
	for stage, rows := range snap.Stages {
		if err := r.engine.RestoreStage(stage, rows); err != nil {
			return false, fmt.Errorf("checkpoint: restore stage %d: %w", stage, err)
		}
	}
	var total uint64
	for src, st := range snap.Sources {
		r.engine.RegisterSource(src)
		r.engine.ObserveWatermark(src, st.Watermark)
		r.rc.SetApplied(src, st.AppliedSeq)
		total += st.AppliedSeq
	}
	r.restoredTerm = snap.Term
	r.SetTerm(snap.Term)
	r.snapAt = total
	r.haveSnap = true
	r.store.Chain().Reset()
	return true, nil
}

// Advance flushes the engine to the merged watermark, routes new rows
// through the result log (suppressing replayed duplicates), mirrors them
// to the replicator, and takes a snapshot plus agent acks when the
// cadence is due. The returned rows are exactly the not-previously-
// emitted ones.
func (r *SPRecovery) Advance() (telemetry.Batch, error) {
	rows := r.rc.Advance()
	if r.log != nil {
		kept, err := r.log.Append(rows)
		if err != nil {
			return nil, err
		}
		rows = kept
		if r.repl != nil && len(rows) > 0 {
			r.repl.PublishRows(rows)
		}
	}
	if err := r.MaybeSnapshot(); err != nil {
		return rows, err
	}
	return rows, nil
}

// MaybeSnapshot takes a durable snapshot and acks it to the agents when
// at least `every` epochs were applied since the last one.
func (r *SPRecovery) MaybeSnapshot() error {
	return r.snapshot(false)
}

// Snapshot unconditionally takes a durable snapshot (e.g. on shutdown).
func (r *SPRecovery) Snapshot() error {
	return r.snapshot(true)
}

// saveJob is one captured snapshot on its way to the durable save (and
// the agent acks that only a durable — and, with a replicator attached,
// replicated — snapshot may release).
type saveJob struct {
	snap *Snapshot
	seqs map[uint32]uint64
}

func (r *SPRecovery) snapshot(force bool) error {
	if err := r.takeDeferred(); err != nil {
		return err
	}
	var job *saveJob
	// Freeze pauses epoch application so the captured operator state,
	// watermarks and sequence numbers are one consistent cut.
	r.rc.Freeze(func(applied map[uint32]uint64) {
		var total uint64
		for _, seq := range applied {
			total += seq
		}
		if !force && r.haveSnap && total-r.snapAt < r.every {
			return
		}
		if !force && !r.haveSnap && total < r.every {
			return
		}
		r.termMu.Lock()
		term := r.term
		r.termMu.Unlock()
		snap := &Snapshot{
			Checkpoint: r.engine.Capture(r.store.Chain().Next()),
			Seq:        total,
			Sources:    make(map[uint32]SourceState),
			Term:       term,
		}
		if r.log != nil {
			snap.EmittedWM = r.log.EmittedWM()
		}
		r.engine.SourceWatermarks(func(src uint32, wm int64) {
			snap.Sources[src] = SourceState{Watermark: wm, AppliedSeq: applied[src]}
		})
		for src, seq := range applied {
			if _, seen := snap.Sources[src]; !seen {
				snap.Sources[src] = SourceState{AppliedSeq: seq}
			}
		}
		r.snapAt = total
		r.haveSnap = true
		job = &saveJob{snap: snap, seqs: applied}
	})
	if job == nil {
		return r.asyncErr()
	}
	// Forced snapshots (shutdown) stay synchronous.
	return r.submit(job, force)
}

// saveAndAck writes one captured snapshot through the chain, replicates
// it, and only then acknowledges the covered epochs to the agents. It
// runs on the caller's goroutine (sync mode) or the async writer's.
func (r *SPRecovery) saveAndAck(job *saveJob) error {
	snapStart := obs.Now()
	id, err := r.store.Chain().Save(job.snap)
	if id == 0 && err == nil {
		return nil // dropped: chained onto a failed save, so nothing to ack
	}
	snapDur := obs.ObserveSince(obs.StageSnapshot, snapStart)
	if err != nil {
		return fmt.Errorf("checkpoint: save SP snapshot: %w", err)
	}
	if snapDur > 0 {
		// Trace context: every epoch this save covers waited through it.
		for src, seq := range job.seqs {
			obs.Traces().AddSnapshotUpTo(src, seq, snapDur)
		}
	}
	if r.repl != nil {
		replStart := obs.Now()
		r.repl.PublishSnapshot(id, job.snap)
		durable := r.repl.WaitDurable(id, r.ackTimeout)
		replDur := obs.ObserveSince(obs.StageReplicate, replStart)
		if replDur > 0 {
			for src, seq := range job.seqs {
				obs.Traces().AddReplicationUpTo(src, seq, replDur)
			}
		}
		if !durable {
			// The attached standby has not confirmed the snapshot: keep the
			// covered epochs in the agents' replay buffers — a later
			// snapshot's ack releases them once replication catches up.
			return nil
		}
	}
	// Only now — with the snapshot durable (and replicated) — may agents
	// prune their replay buffers up to the covered epochs.
	ackStart := obs.Now()
	r.rc.AckSeqs(job.seqs)
	obs.Since(obs.StageAck, ackStart)
	return nil
}

// saver is the save plumbing both recovery managers embed: it runs the
// manager's do hook inline, or — SetAsync — on an asyncWriter goroutine,
// leaving only the state capture (which must see the between-epochs
// quiescent point) on the epoch path.
type saver struct {
	do func(*saveJob) error
	aw *asyncWriter
	// deferredErr holds a save error from a torn-down async writer until
	// the next snapshot call surfaces it.
	deferredErr error
}

// SetAsync moves the durable save (encode + write + compaction, and on
// the SP the replication wait + agent acks) onto a writer goroutine.
// Call once before the run loop; pair with Close on shutdown so queued
// snapshots drain. Disabling keeps any deferred save error, which the
// next snapshot call surfaces.
func (s *saver) SetAsync(on bool) {
	if on == (s.aw != nil) {
		return
	}
	if !on {
		if err := s.Close(); err != nil && s.deferredErr == nil {
			s.deferredErr = err
		}
		return
	}
	s.aw = newAsyncWriter(s.do)
}

// Flush blocks until every queued async save has completed and returns
// (clearing) the first deferred save error, if any. A no-op without the
// async writer.
func (s *saver) Flush() error {
	if s.aw == nil {
		return nil
	}
	return s.aw.flush()
}

// Close drains the async writer (when enabled) and stops it.
func (s *saver) Close() error {
	if s.aw == nil {
		return nil
	}
	err := s.aw.close()
	s.aw = nil
	return err
}

// Abandon stops the async writer without saving what is still queued,
// as a process kill would; the save in progress completes.
func (s *saver) Abandon() {
	if s.aw != nil {
		s.aw.mu.Lock()
		s.aw.q = nil
		s.aw.mu.Unlock()
		_ = s.Close()
	}
}

// takeDeferred returns (clearing) the error a torn-down writer left.
func (s *saver) takeDeferred() error {
	err := s.deferredErr
	s.deferredErr = nil
	return err
}

// asyncErr returns (clearing) the first error of an async save that
// completed since the last call; nil in sync mode.
func (s *saver) asyncErr() error {
	if s.aw == nil {
		return nil
	}
	return s.aw.takeErr()
}

// submit saves one captured job: inline in sync mode, queued behind the
// writer otherwise — unless inline is forced, which drains the queue
// first so saves keep capture order.
func (s *saver) submit(job *saveJob, inline bool) error {
	if s.aw == nil {
		return s.do(job)
	}
	if inline {
		if err := s.aw.flush(); err != nil {
			return err
		}
		return s.do(job)
	}
	s.aw.enqueue(job)
	return s.aw.takeErr()
}

// asyncWriter serializes snapshot saves on a dedicated goroutine with a
// small bounded queue; enqueue blocks when the writer falls that far
// behind (backpressure on the epoch loop instead of unbounded memory).
// The do hook performs one save (see saver).
type asyncWriter struct {
	do   func(*saveJob) error
	mu   sync.Mutex
	cond *sync.Cond
	q    []*saveJob
	busy bool
	done bool
	err  error // first deferred save error, surfaced on the next snapshot call
}

// asyncQueueDepth bounds captured-but-unsaved snapshots.
const asyncQueueDepth = 4

func newAsyncWriter(do func(*saveJob) error) *asyncWriter {
	w := &asyncWriter{do: do}
	w.cond = sync.NewCond(&w.mu)
	go w.run()
	return w
}

func (w *asyncWriter) run() {
	for {
		w.mu.Lock()
		for len(w.q) == 0 && !w.done {
			w.cond.Wait()
		}
		if len(w.q) == 0 && w.done {
			w.mu.Unlock()
			return
		}
		job := w.q[0]
		w.q = w.q[1:]
		w.busy = true
		w.mu.Unlock()
		err := w.do(job)
		w.mu.Lock()
		w.busy = false
		if err != nil && w.err == nil {
			w.err = err
		}
		w.cond.Broadcast()
		w.mu.Unlock()
	}
}

func (w *asyncWriter) enqueue(job *saveJob) {
	w.mu.Lock()
	for len(w.q) >= asyncQueueDepth && !w.done {
		w.cond.Wait()
	}
	w.q = append(w.q, job)
	w.cond.Broadcast()
	w.mu.Unlock()
}

func (w *asyncWriter) takeErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.err
	w.err = nil
	return err
}

func (w *asyncWriter) flush() error {
	w.mu.Lock()
	for len(w.q) > 0 || w.busy {
		w.cond.Wait()
	}
	err := w.err
	w.err = nil
	w.mu.Unlock()
	return err
}

func (w *asyncWriter) close() error {
	err := w.flush()
	w.mu.Lock()
	w.done = true
	w.cond.Broadcast()
	w.mu.Unlock()
	return err
}
