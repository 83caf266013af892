package stream

import (
	"fmt"
	"sort"

	"jarvis/internal/operator"
	"jarvis/internal/telemetry"
)

// Checkpointing (paper §IV-E): a data source periodically snapshots the
// intermediate state its stateful operators accumulated for the current
// window, so that after a source failure the stream processor can finish
// the window from the checkpoint instead of losing the partial
// aggregates. Snapshots serialize to the same wire format as drained
// records — a checkpoint is literally "the partial rows that would have
// been drained", tagged with the operator stage that must absorb them.

// Checkpoint is one capture of an engine's stateful operator state —
// the cut a checkpoint.Snapshot embeds and persists.
type Checkpoint struct {
	// Watermark is the engine's low watermark at capture time.
	Watermark int64
	// Stages maps operator stage → partial aggregate rows. In a delta
	// capture, only rows touched since the previous capture.
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

// Capture copies the pipeline's stateful operator state without
// disturbing it (see capture). The paper notes checkpoint frequency
// trades network traffic for recovery cost; callers choose when to
// invoke this.
func (p *Pipeline) Capture(full bool) Checkpoint {
	cp := capture(p.ops[:p.opts.Boundary], full)
	cp.Watermark = p.watermark
	return cp
}

// Capture is the SP-side counterpart of Pipeline.Capture, stamped with
// the effective (minimum) source watermark.
func (e *SPEngine) Capture(full bool) Checkpoint {
	e.mu.Lock()
	defer e.mu.Unlock()
	cp := capture(e.ops, full)
	cp.Watermark = e.effectiveWMLocked()
	return cp
}

// capture is the one capture routine behind both engines. A full capture
// copies every Checkpointable operator's open windows; a delta capture
// only the state dirtied since the previous capture: operators that
// track dirtiness (operator.DeltaCheckpointable) contribute touched rows
// plus closed-window tombstones, the rest are captured wholesale in
// replace mode. Either way the capture starts a new dirty generation, so
// the next delta is relative to it.
func capture(ops []operator.Operator, full bool) Checkpoint {
	cp := Checkpoint{Stages: make(map[int]telemetry.Batch), Delta: !full}
	if !full {
		cp.Meta = make(map[int]StageDelta)
	}
	for i, op := range ops {
		g, ok := op.(operator.Checkpointable)
		if !ok {
			continue
		}
		dc, isDelta := g.(operator.DeltaCheckpointable)
		var closed []int64
		tracked := false
		if isDelta && !full {
			closed, tracked = dc.ClosedWindows()
		}
		var rows telemetry.Batch
		emit := func(r telemetry.Record) { rows = append(rows, r) }
		if tracked {
			dirty := dc.DirtyWindows()
			rows = presize(g, dirty)
			for _, w := range dirty {
				dc.SnapshotDirtyWindow(w, emit)
			}
			if len(rows) > 0 || len(closed) > 0 {
				cp.Meta[i] = StageDelta{Closed: closed}
			}
		} else {
			// A full capture — or, inside a delta, an operator without dirty
			// tracking or one that overflowed its tombstone memory (no
			// MarkClean for too long): its whole state, in replace mode (the
			// meta entry is required even when empty, so the reconstruction
			// clears state the operator no longer holds).
			windows := g.OpenWindows()
			rows = presize(g, windows)
			for _, w := range windows {
				g.SnapshotWindow(w, emit)
			}
			if !full {
				cp.Meta[i] = StageDelta{Replace: true}
			}
		}
		if len(rows) > 0 {
			cp.Stages[i] = rows
		}
		if isDelta {
			dc.MarkClean()
		}
	}
	return cp
}

// groupCounter is implemented by stateful operators that can report a
// window's group count (a capacity hint for snapshot batches).
type groupCounter interface {
	GroupCount(window int64) int
}

// presize returns an empty batch with capacity for the rows of the
// given windows, when the operator can report group counts.
func presize(g operator.Checkpointable, windows []int64) telemetry.Batch {
	gc, ok := g.(groupCounter)
	if !ok {
		return nil
	}
	total := 0
	for _, w := range windows {
		total += gc.GroupCount(w)
	}
	return make(telemetry.Batch, 0, total)
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
