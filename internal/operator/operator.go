// Package operator implements the streaming primitives of Jarvis queries:
// Window (W), Filter (F), Map (M), Join with a static table (J) and
// GroupApply+Aggregate (G+R) with incrementally updatable, mergeable
// aggregates (paper §II-A, rule R-1).
//
// Operators are single-goroutine state machines with one data-plane
// entry point: the engine hands ProcessColumnar a wave of sections
// (wire.ColumnarBatch) and the operator advances it in place; Flush
// releases closed windows when the event-time watermark advances. A
// section is either SoA columns, which the operator's kernels process
// without building records, or materialized rows (wire.ColSec.Rows) —
// the generic carrier for payloads without a column layout and for
// sections an operator has no kernel for. Every operator has exactly one
// row routine behind that branch. The same operator implementation runs
// on the data source and, replicated, on the stream processor; G+R
// accepts both raw records and partial AggRow records so that
// source-side partial state merges losslessly into the SP-side state —
// the property that enables data-level partitioning of stateful
// operators.
package operator

import (
	"fmt"
	"math"

	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
)

// Kind classifies an operator for planning rules and cost profiling.
type Kind int

// Operator kinds (paper §II-A).
const (
	KindWindow Kind = iota
	KindFilter
	KindMap
	KindJoin
	KindGroupAgg
)

// String renders the kind using the paper's single-letter notation.
func (k Kind) String() string {
	switch k {
	case KindWindow:
		return "W"
	case KindFilter:
		return "F"
	case KindMap:
		return "M"
	case KindJoin:
		return "J"
	case KindGroupAgg:
		return "G+R"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Emit receives operator output records.
type Emit func(telemetry.Record)

// StatefulDrainer is implemented by stateful operators that can hand all
// partial state downstream immediately (the stateful drain path, §V).
type StatefulDrainer interface {
	Drain(Emit)
}

// Checkpointable is implemented by stateful operators whose per-window
// state can be snapshotted non-destructively (§IV-E fault tolerance).
type Checkpointable interface {
	OpenWindows() []int64
	SnapshotWindow(w int64, emit Emit)
}

// DeltaCheckpointable extends Checkpointable with dirty-state tracking,
// enabling incremental (delta) snapshots: between two MarkClean calls
// the operator remembers which groups were touched and which windows it
// closed, so a snapshot can ship only the rows that changed since the
// previous one. Operators that cannot track dirtiness are snapshotted
// wholesale (replace mode) inside delta snapshots.
type DeltaCheckpointable interface {
	Checkpointable
	// DirtyWindows returns the windows touched since the last MarkClean,
	// ascending.
	DirtyWindows() []int64
	// SnapshotDirtyWindow emits copies of the window's rows touched since
	// the last MarkClean, without disturbing state.
	SnapshotDirtyWindow(w int64, emit Emit)
	// ClosedWindows returns the windows flushed or drained since the last
	// MarkClean (delta tombstones: the reconstruction drops their rows).
	// ok reports whether tracking is intact; it is false when the
	// operator capped its tombstone memory (e.g. it ran unbounded with
	// no MarkClean because checkpointing is disabled), in which case the
	// caller must capture the operator in full instead of as a delta.
	ClosedWindows() (closed []int64, ok bool)
	// MarkClean starts a new dirty-tracking generation; call it after
	// every snapshot capture, full or delta.
	MarkClean()
}

// SnapshotAbsorber is implemented by stateful operators that can merge a
// whole batch of their own snapshot rows in one call, without emitting —
// the bulk restore path. It must be behaviorally identical to processing
// the rows one at a time, but may allocate per batch instead of per
// group, and may take ownership of the rows' payloads (callers restore
// from freshly decoded snapshots and never touch the rows again).
// AbsorbSnapshot reports false — absorbing nothing — when the batch
// contains rows it does not recognize; the caller then falls back to
// ProcessColumnar.
type SnapshotAbsorber interface {
	AbsorbSnapshot(rows telemetry.Batch) bool
}

// Operator is one vertex of the query DAG.
type Operator interface {
	// Name is a unique, human-readable operator name within the query.
	Name() string
	// Kind classifies the operator.
	Kind() Kind
	// ProcessColumnar advances a wave through the operator in place: the
	// sections left in cb afterwards are the operator's output, in record
	// order (stateful operators that emit only from Flush consume the
	// wave whole). Shared columns and row arrays are never written
	// through — see the mutation discipline in columnar.go. Output
	// sections may live in operator-owned scratch that the next
	// ProcessColumnar call reuses, so the caller consumes or copies them
	// first.
	ProcessColumnar(cb *wire.ColumnarBatch)
	// Flush advances the event-time watermark, emitting results of any
	// windows that closed. Stateless operators ignore it.
	Flush(watermark int64, emit Emit)
	// Stateful reports whether the operator accumulates cross-record
	// state (relevant for drain routing and checkpointing).
	Stateful() bool
	// Reset drops all accumulated state (used between experiment runs).
	Reset()
}

// ProcessRows runs rows through an operator as one materialized section
// and appends whatever the operator emits to *out. The rows are only
// read; the appended records may still share their payloads.
func ProcessRows(op Operator, rows telemetry.Batch, out *telemetry.Batch) {
	if len(rows) == 0 {
		return
	}
	cb := wire.ColumnarBatch{Secs: []wire.ColSec{{Rows: rows}}}
	op.ProcessColumnar(&cb)
	cb.AppendRows(out)
}

// carve returns buf[start:] as a section's Rows: capacity-clipped, so
// later appends to buf cannot grow into it, and never nil (nil Rows would
// mark the section as SoA).
func carve(buf telemetry.Batch, start int) telemetry.Batch {
	if buf == nil {
		return telemetry.Batch{}
	}
	return buf[start:len(buf):len(buf)]
}

// Window assigns records to fixed-size tumbling windows by event time.
// It is pass-through otherwise.
type Window struct {
	name string
	dur  int64 // window length, microseconds
	// winScratch backs the replacement window columns and rowScratch the
	// rewritten Rows sections (high-water, reused across waves).
	winScratch []int64
	rowScratch telemetry.Batch
}

// NewWindow creates a tumbling-window operator of the given duration in
// microseconds (the paper's queries use 10 s).
func NewWindow(name string, durMicros int64) *Window {
	if durMicros <= 0 {
		panic("operator: window duration must be positive")
	}
	return &Window{name: name, dur: durMicros}
}

// Name implements Operator.
func (w *Window) Name() string { return w.name }

// Kind implements Operator.
func (w *Window) Kind() Kind { return KindWindow }

// Duration returns the window length in microseconds.
func (w *Window) Duration() int64 { return w.dur }

// WindowOf returns the window id for an event time.
func (w *Window) WindowOf(micros int64) int64 {
	id := micros / w.dur
	if micros < 0 && micros%w.dur != 0 {
		id--
	}
	return id
}

// WindowEnd returns the exclusive end time of a window id.
func (w *Window) WindowEnd(id int64) int64 { return (id + 1) * w.dur }

// ProcessColumnar implements Operator: each SoA section's window column
// is recomputed from its time column in one pass, and Rows sections are
// rewritten record by record. The replacements come from high-water
// scratch buffers reused across calls.
func (w *Window) ProcessColumnar(cb *wire.ColumnarBatch) {
	total := 0
	for si := range cb.Secs {
		if cb.Secs[si].Rows == nil {
			total += len(cb.Secs[si].Times)
		}
	}
	if cap(w.winScratch) < total {
		w.winScratch = make([]int64, total)
	}
	buf := w.winScratch[:0]
	rows := w.rowScratch[:0]
	for si := range cb.Secs {
		sec := &cb.Secs[si]
		if sec.Rows != nil {
			start := len(rows)
			for _, rec := range sec.Rows {
				rec.Window = w.WindowOf(rec.Time)
				rows = append(rows, rec)
			}
			sec.Rows = carve(rows, start)
			continue
		}
		n := len(sec.Times)
		win := buf[len(buf) : len(buf)+n]
		buf = buf[:len(buf)+n]
		// Event times arrive near-monotonic, so consecutive rows almost
		// always share a window: cache the current window's [lo, hi) time
		// range (exactly the floor-division bucket WindowOf computes) and
		// divide only when a row falls outside it.
		var curWin, lo, hi int64
		hi = math.MinInt64 // force the first row to resolve
		for i, t := range sec.Times {
			if t < lo || t >= hi {
				curWin = w.WindowOf(t)
				lo = curWin * w.dur
				hi = lo + w.dur
			}
			win[i] = curWin
		}
		sec.Windows = win
	}
	w.rowScratch = rows[:0]
}

// Flush implements Operator (no-op: windows close downstream).
func (w *Window) Flush(int64, Emit) {}

// Stateful implements Operator.
func (w *Window) Stateful() bool { return false }

// Reset implements Operator.
func (w *Window) Reset() {}

// Filter drops records failing a predicate.
type Filter struct {
	name string
	pred func(telemetry.Record) bool
	// colPred is the compiled SoA predicate (SetColumnarPred); selScratch
	// backs the selection vectors it produces and rowScratch the filtered
	// Rows sections (high-water, reused).
	colPred    ColumnarPred
	selScratch []int32
	rowScratch telemetry.Batch
}

// NewFilter creates a filter operator.
func NewFilter(name string, pred func(telemetry.Record) bool) *Filter {
	return &Filter{name: name, pred: pred}
}

// SetColumnarPred installs the filter's compiled SoA predicate (the plan
// layer compiles optimizer-visible expressions; opaque predicates may
// register a hand-written one). Without it every section is filtered as
// rows.
func (f *Filter) SetColumnarPred(p ColumnarPred) { f.colPred = p }

// Name implements Operator.
func (f *Filter) Name() string { return f.name }

// Kind implements Operator.
func (f *Filter) Kind() Kind { return KindFilter }

// ProcessColumnar implements Operator: sections the compiled predicate
// covers are narrowed with a selection vector (columns stay shared, zero
// copying); the rest are materialized and filtered by the row predicate.
func (f *Filter) ProcessColumnar(cb *wire.ColumnarBatch) {
	total := 0
	for si := range cb.Secs {
		total += cb.Secs[si].Len()
	}
	if cap(f.selScratch) < total {
		f.selScratch = make([]int32, total)
	}
	buf := f.selScratch[:0]
	rows := f.rowScratch[:0]
	for si := range cb.Secs {
		sec := &cb.Secs[si]
		var keep func(i int) bool
		ok := false
		if sec.Rows == nil && f.colPred != nil {
			keep, ok = f.colPred(sec)
		}
		if !ok {
			// Row routine. A SoA section is materialized into the scratch
			// first and compacted in place (the write index never passes
			// the read index).
			start := len(rows)
			in := sec.Rows
			if in == nil {
				sec.AppendRows(&rows)
				in, rows = rows[start:], rows[:start]
			}
			for i := range in {
				if f.pred(in[i]) {
					rows = append(rows, in[i])
				}
			}
			*sec = wire.ColSec{Tag: sec.Tag, Rows: carve(rows, start)}
			continue
		}
		sel := buf[len(buf):len(buf)]
		if sec.Sel != nil {
			for _, i := range sec.Sel {
				if keep(int(i)) {
					sel = append(sel, i)
				}
			}
		} else {
			for i := 0; i < len(sec.Times); i++ {
				if keep(i) {
					sel = append(sel, int32(i))
				}
			}
		}
		buf = buf[:len(buf)+len(sel)]
		sec.Sel = sel
	}
	f.rowScratch = rows[:0]
}

// Flush implements Operator.
func (f *Filter) Flush(int64, Emit) {}

// Stateful implements Operator.
func (f *Filter) Stateful() bool { return false }

// Reset implements Operator.
func (f *Filter) Reset() {}

// Map applies a user transformation emitting zero or more records per
// input (flat-map semantics cover parsing one log line into several
// JobStats records).
type Map struct {
	name string
	fn   func(telemetry.Record, Emit)
	// colKernel is the SoA transformation (SetColumnarKernel), when the
	// map has one; rowScratch backs the Rows sections the row function
	// produces (high-water, reused).
	colKernel  ColumnarMapKernel
	rowScratch telemetry.Batch
}

// NewMap creates a map operator from a flat-map function.
func NewMap(name string, fn func(telemetry.Record, Emit)) *Map {
	return &Map{name: name, fn: fn}
}

// NewMap1 creates a map operator from a one-to-one transformation.
func NewMap1(name string, fn func(telemetry.Record) telemetry.Record) *Map {
	return &Map{name: name, fn: func(rec telemetry.Record, emit Emit) {
		emit(fn(rec))
	}}
}

// SetColumnarKernel installs the map's SoA transformation. Without it
// every section runs through the row function.
func (m *Map) SetColumnarKernel(k ColumnarMapKernel) { m.colKernel = k }

// Name implements Operator.
func (m *Map) Name() string { return m.name }

// Kind implements Operator.
func (m *Map) Kind() Kind { return KindMap }

// ProcessColumnar implements Operator: the section list is rebuilt
// through the kernel; sections it declines (and Rows sections) run
// through the flat-map function, one emit closure shared by the wave.
func (m *Map) ProcessColumnar(cb *wire.ColumnarBatch) {
	out := make([]wire.ColSec, 0, len(cb.Secs))
	rows := m.rowScratch[:0]
	emit := func(rec telemetry.Record) { rows = append(rows, rec) }
	for si := range cb.Secs {
		sec := &cb.Secs[si]
		if sec.Rows == nil && m.colKernel != nil && m.colKernel(sec, &out) {
			continue
		}
		in := sec.Rows
		if in == nil {
			sec.AppendRows(&in)
		}
		start := len(rows)
		for i := range in {
			m.fn(in[i], emit)
		}
		out = append(out, wire.ColSec{Tag: sec.Tag, Rows: carve(rows, start)})
	}
	m.rowScratch = rows[:0]
	cb.Secs = out
}

// Flush implements Operator.
func (m *Map) Flush(int64, Emit) {}

// Stateful implements Operator.
func (m *Map) Stateful() bool { return false }

// Reset implements Operator.
func (m *Map) Reset() {}
