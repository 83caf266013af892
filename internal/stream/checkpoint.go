package stream

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"jarvis/internal/operator"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
)

// Checkpointing (paper §IV-E): a data source periodically snapshots the
// intermediate state its stateful operators accumulated for the current
// window, so that after a source failure the stream processor can finish
// the window from the checkpoint instead of losing the partial
// aggregates. Snapshots serialize to the same wire format as drained
// records — a checkpoint is literally "the partial rows that would have
// been drained", tagged with the operator stage that must absorb them.

// Checkpoint is a snapshot of a pipeline's stateful operator state.
type Checkpoint struct {
	// Epoch stamps when the snapshot was taken.
	Epoch int64
	// Watermark is the pipeline's low watermark at snapshot time.
	Watermark int64
	// Stages maps operator stage → partial aggregate rows. In a delta
	// checkpoint, only rows touched since the previous capture.
	Stages map[int]telemetry.Batch
	// Delta marks an incremental capture: Stages holds only state dirtied
	// since the previous capture, interpreted per Meta.
	Delta bool
	// Meta describes, per stage, how delta rows apply to the previous
	// state (only set when Delta).
	Meta map[int]StageDelta
}

// StageDelta describes how one stage's rows in a delta checkpoint apply
// to the base state it extends.
type StageDelta struct {
	// Replace swaps the stage's rows wholesale — used for operators that
	// cannot track per-group dirtiness (e.g. buffered join misses); their
	// delta rows are the full current state, possibly empty.
	Replace bool
	// Closed lists windows the operator flushed since the previous
	// capture; the reconstruction drops their rows.
	Closed []int64
}

// Checkpoint captures the pipeline's stateful operator state without
// disturbing it (state is copied, not drained). The paper notes
// checkpoint frequency trades network traffic for recovery cost; callers
// choose when to invoke this.
func (p *Pipeline) Checkpoint(epoch int64) *Checkpoint {
	cp := &Checkpoint{
		Epoch:     epoch,
		Watermark: p.watermark,
		Stages:    make(map[int]telemetry.Batch),
	}
	for i := 0; i < p.opts.Boundary; i++ {
		g, ok := p.ops[i].(operator.Checkpointable)
		if !ok {
			continue
		}
		if rows := snapshotOp(g); len(rows) > 0 {
			cp.Stages[i] = rows
		}
	}
	return cp
}

// CheckpointDelta captures only the state dirtied since the previous
// capture (full or delta) and starts a new dirty generation. Operators
// that track dirtiness (operator.DeltaCheckpointable) contribute touched
// rows plus closed-window tombstones; other Checkpointable operators are
// captured wholesale in replace mode. Pair with a full Checkpoint +
// MarkSnapshotClean as the chain base.
func (p *Pipeline) CheckpointDelta(epoch int64) *Checkpoint {
	cp := &Checkpoint{
		Epoch:     epoch,
		Watermark: p.watermark,
		Stages:    make(map[int]telemetry.Batch),
		Delta:     true,
		Meta:      make(map[int]StageDelta),
	}
	captureDelta(p.ops[:p.opts.Boundary], cp)
	return cp
}

// MarkSnapshotClean starts a new dirty-tracking generation on every
// delta-capable operator. Call it right after a full Checkpoint capture
// that begins a snapshot chain, so the next CheckpointDelta is relative
// to that capture.
func (p *Pipeline) MarkSnapshotClean() { markClean(p.ops[:p.opts.Boundary]) }

// captureDelta fills a delta checkpoint from the given operators.
func captureDelta(ops []operator.Operator, cp *Checkpoint) {
	for i, op := range ops {
		g, ok := op.(operator.Checkpointable)
		if !ok {
			continue
		}
		dc, isDelta := g.(operator.DeltaCheckpointable)
		var closed []int64
		tracked := false
		if isDelta {
			closed, tracked = dc.ClosedWindows()
		}
		if !tracked {
			// No dirty tracking — or the operator overflowed its
			// tombstone memory (no MarkClean for too long): ship the full
			// state in replace mode (the meta entry is required even when
			// empty, so the reconstruction clears state the operator no
			// longer holds).
			if rows := snapshotOp(g); len(rows) > 0 {
				cp.Stages[i] = rows
			}
			cp.Meta[i] = StageDelta{Replace: true}
			if isDelta {
				dc.MarkClean()
			}
			continue
		}
		dirty := dc.DirtyWindows()
		var rows telemetry.Batch
		if gc, ok := g.(groupCounter); ok {
			total := 0
			for _, w := range dirty {
				total += gc.GroupCount(w)
			}
			rows = make(telemetry.Batch, 0, total)
		}
		for _, w := range dirty {
			dc.SnapshotDirtyWindow(w, func(r telemetry.Record) { rows = append(rows, r) })
		}
		if len(rows) > 0 {
			cp.Stages[i] = rows
		}
		if len(rows) > 0 || len(closed) > 0 {
			cp.Meta[i] = StageDelta{Closed: closed}
		}
		dc.MarkClean()
	}
}

// markClean advances dirty tracking on every delta-capable operator.
func markClean(ops []operator.Operator) {
	for _, op := range ops {
		if dc, ok := op.(operator.DeltaCheckpointable); ok {
			dc.MarkClean()
		}
	}
}

// groupCounter is implemented by stateful operators that can report a
// window's group count (a capacity hint for snapshot batches).
type groupCounter interface {
	GroupCount(window int64) int
}

// snapshotOp captures one Checkpointable operator's open windows into a
// single batch, presized when the operator can report group counts.
func snapshotOp(g operator.Checkpointable) telemetry.Batch {
	windows := g.OpenWindows()
	var rows telemetry.Batch
	if gc, ok := g.(groupCounter); ok {
		total := 0
		for _, w := range windows {
			total += gc.GroupCount(w)
		}
		rows = make(telemetry.Batch, 0, total)
	}
	for _, w := range windows {
		g.SnapshotWindow(w, func(r telemetry.Record) { rows = append(rows, r) })
	}
	return rows
}

// Encode serializes the checkpoint with the wire codec (one frame per
// stage; StreamID carries the stage, Source carries the epoch low bits).
func (cp *Checkpoint) Encode(w io.Writer) error {
	fw := wire.NewFrameWriter(w)
	// Header frame: watermark + epoch via a watermark record.
	hdr := telemetry.Record{
		Time:     cp.Watermark,
		WireSize: 17,
		Data:     &wire.Watermark{Time: cp.Watermark},
	}
	if err := fw.WriteFrame(wire.Frame{
		StreamID: ^uint32(0),
		Source:   uint32(cp.Epoch),
		Records:  telemetry.Batch{hdr},
	}); err != nil {
		return err
	}
	for stage, rows := range cp.Stages {
		if err := fw.WriteFrame(wire.Frame{
			StreamID: uint32(stage),
			Source:   uint32(cp.Epoch),
			Records:  rows,
		}); err != nil {
			return err
		}
	}
	return fw.Flush()
}

// DecodeCheckpoint reads a checkpoint previously written by Encode.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	fr := wire.NewFrameReader(r)
	first, err := fr.ReadFrame()
	if err != nil {
		return nil, fmt.Errorf("stream: checkpoint header: %w", err)
	}
	if first.StreamID != ^uint32(0) || len(first.Records) != 1 {
		return nil, fmt.Errorf("stream: malformed checkpoint header")
	}
	wm, ok := first.Records[0].Data.(*wire.Watermark)
	if !ok {
		return nil, fmt.Errorf("stream: checkpoint header is not a watermark")
	}
	cp := &Checkpoint{
		Epoch:     int64(first.Source),
		Watermark: wm.Time,
		Stages:    make(map[int]telemetry.Batch),
	}
	for {
		f, err := fr.ReadFrame()
		if err == io.EOF {
			return cp, nil
		}
		if err != nil {
			return nil, err
		}
		cp.Stages[int(f.StreamID)] = f.Records
	}
}

// Bytes serializes the checkpoint to a buffer.
func (cp *Checkpoint) Bytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RestoreCheckpoint folds a checkpoint back into this pipeline's own
// operators after a restart: each stage's rows re-enter the operator that
// snapshotted them (partial aggregates merge, buffered join misses
// re-buffer) and the watermark resumes where the snapshot left it.
// Records an operator emits while absorbing its state (e.g. a buffered
// join miss that now hits) are queued at the next stage; they re-enter
// normal budgeted execution on the following epoch.
func (p *Pipeline) RestoreCheckpoint(cp *Checkpoint) error {
	for stage, rows := range cp.Stages {
		if stage < 0 || stage >= len(p.ops) {
			return fmt.Errorf("stream: restore stage %d out of range [0,%d)", stage, len(p.ops))
		}
		// Bulk path: operators that absorb their own snapshot rows in one
		// call (and never emit while doing so).
		if a, ok := p.ops[stage].(operator.SnapshotAbsorber); ok && a.AbsorbSnapshot(rows) {
			continue
		}
		out := &p.restored
		if stage+1 < p.opts.Boundary {
			out = &p.queues[stage+1]
		}
		operator.ProcessRows(p.ops[stage], rows, out)
	}
	if cp.Watermark > p.watermark {
		p.watermark = cp.Watermark
	}
	if cp.Watermark > p.maxEventSeen {
		p.maxEventSeen = cp.Watermark
	}
	return nil
}

// SnapshotStages copies every Checkpointable operator's open-window state
// without disturbing it — the SP-side counterpart of Pipeline.Checkpoint,
// used by the recovery manager to take epoch-aligned engine snapshots.
func (e *SPEngine) SnapshotStages() map[int]telemetry.Batch {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[int]telemetry.Batch)
	for i, op := range e.ops {
		g, ok := op.(operator.Checkpointable)
		if !ok {
			continue
		}
		if rows := snapshotOp(g); len(rows) > 0 {
			out[i] = rows
		}
	}
	return out
}

// SnapshotStagesDelta captures only the engine state dirtied since the
// previous capture, with per-stage apply metadata — the SP-side
// counterpart of Pipeline.CheckpointDelta. It starts a new dirty
// generation on delta-capable operators.
func (e *SPEngine) SnapshotStagesDelta() (map[int]telemetry.Batch, map[int]StageDelta) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cp := &Checkpoint{Stages: make(map[int]telemetry.Batch), Meta: make(map[int]StageDelta)}
	captureDelta(e.ops, cp)
	return cp.Stages, cp.Meta
}

// MarkSnapshotClean starts a new dirty generation on every delta-capable
// operator; call it after a full SnapshotStages capture that begins a
// snapshot chain.
func (e *SPEngine) MarkSnapshotClean() {
	e.mu.Lock()
	defer e.mu.Unlock()
	markClean(e.ops)
}

// RestoreStage folds snapshot rows back into the operator that captured
// them, using the bulk absorb path when available. Unlike Ingest it does
// not run the rows through downstream operators — restore-time
// emissions (e.g. a buffered join miss that now hits) continue down the
// chain exactly as Ingest would route them.
func (e *SPEngine) RestoreStage(stage int, rows telemetry.Batch) error {
	e.mu.Lock()
	if stage >= 0 && stage < len(e.ops) {
		if a, ok := e.ops[stage].(operator.SnapshotAbsorber); ok && a.AbsorbSnapshot(rows) {
			e.ingestBytes += rows.TotalBytes()
			e.ingestCount += int64(len(rows))
			e.mu.Unlock()
			return nil
		}
	}
	e.mu.Unlock()
	return e.Ingest(stage, rows)
}

// LoadSnapshot atomically replaces the engine's state with a full
// snapshot: every operator is reset, each stage's rows fold back into
// the operator that captured them, and the given per-source watermarks
// are re-observed. The HA standby drives it after each replicated
// snapshot so its shadow engine always mirrors the primary's last
// durable cut; loading sorted stage order keeps restore deterministic.
func (e *SPEngine) LoadSnapshot(stages map[int]telemetry.Batch, watermarks map[uint32]int64) error {
	e.mu.Lock()
	for _, op := range e.ops {
		op.Reset()
	}
	e.sourceWM = make(map[uint32]int64)
	e.results = nil
	e.mu.Unlock()
	stageIDs := make([]int, 0, len(stages))
	for st := range stages {
		stageIDs = append(stageIDs, st)
	}
	sort.Ints(stageIDs)
	for _, st := range stageIDs {
		if err := e.RestoreStage(st, stages[st]); err != nil {
			return fmt.Errorf("stream: load snapshot stage %d: %w", st, err)
		}
	}
	for src, wm := range watermarks {
		e.RegisterSource(src)
		e.ObserveWatermark(src, wm)
	}
	return nil
}

// Restore folds a checkpoint into an SP engine: each stage's partial
// rows merge into the replicated operator, exactly like drained partial
// aggregates would (§V). Use after a source failure to finish its
// in-flight windows.
func (e *SPEngine) Restore(source uint32, cp *Checkpoint) error {
	for stage, rows := range cp.Stages {
		if err := e.Ingest(stage, rows); err != nil {
			return fmt.Errorf("stream: restore stage %d: %w", stage, err)
		}
	}
	e.ObserveWatermark(source, cp.Watermark)
	return nil
}
