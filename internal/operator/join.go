package operator

import (
	"sort"

	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
)

// Join joins the stream with a static table via a user lookup function
// (paper Listing 2: joining probes with the IP→ToR map). The lookup may
// drop records whose key misses the table, matching inner-join semantics.
//
// With BufferMisses enabled the join becomes stateful: records whose key
// misses the table are retained per window and re-probed when the window
// closes (the table may have gained entries — e.g. a ToR map refreshed
// mid-window), and the buffered state is Checkpointable/Drainable so it
// survives checkpoint/recovery instead of being silently dropped.
type Join struct {
	name      string
	tableSize int
	fn        func(telemetry.Record) (telemetry.Record, bool)

	// Miss buffering (optional): window duration for re-probe scheduling
	// and the per-window pending records. bufferDur == 0 disables it.
	bufferDur int64
	pending   map[int64]telemetry.Batch

	// colKernel is the SoA probe loop (SetColumnarKernel); rowScratch
	// backs the Rows sections the row probe produces (high-water, reused).
	colKernel  ColumnarJoinKernel
	rowScratch telemetry.Batch
}

// NewJoin creates a join operator. tableSize is the static table's entry
// count; the cost model uses it to scale hash-probe cost (paper §VI-C
// grows the table 10× to stress the join).
func NewJoin(name string, tableSize int, fn func(telemetry.Record) (telemetry.Record, bool)) *Join {
	return &Join{name: name, tableSize: tableSize, fn: fn}
}

// Name implements Operator.
func (j *Join) Name() string { return j.name }

// Kind implements Operator.
func (j *Join) Kind() Kind { return KindJoin }

// TableSize returns the static table's entry count.
func (j *Join) TableSize() int { return j.tableSize }

// SetTableSize updates the recorded table size (experiments resize the
// table at runtime to change the join cost).
func (j *Join) SetTableSize(n int) { j.tableSize = n }

// BufferMisses enables per-window retention of records whose lookup
// misses the table. windowDurMicros must match the upstream Window
// operator so buffered records re-probe exactly when their window
// closes. Returns the join for chaining.
func (j *Join) BufferMisses(windowDurMicros int64) *Join {
	if windowDurMicros <= 0 {
		panic("operator: join buffer window duration must be positive")
	}
	j.bufferDur = windowDurMicros
	if j.pending == nil {
		j.pending = make(map[int64]telemetry.Batch)
	}
	return j
}

// SetColumnarKernel installs the join's SoA probe loop. Without it every
// section is probed as rows.
func (j *Join) SetColumnarKernel(k ColumnarJoinKernel) { j.colKernel = k }

// ProcessColumnar implements Operator: the section list is rebuilt
// through the kernel (hash probe over packed columns, selection compacted
// into the output); sections it declines, and Rows sections, are probed
// one record at a time. A miss-buffering join probes everything as rows:
// buffered misses must be materialized records anyway (they outlive the
// wave), so the SoA probe would buy nothing.
func (j *Join) ProcessColumnar(cb *wire.ColumnarBatch) {
	out := make([]wire.ColSec, 0, len(cb.Secs))
	rows := j.rowScratch[:0]
	soa := j.colKernel != nil && j.bufferDur == 0
	for si := range cb.Secs {
		sec := &cb.Secs[si]
		if sec.Rows == nil && soa && j.colKernel(sec, &out) {
			continue
		}
		in := sec.Rows
		if in == nil {
			sec.AppendRows(&in)
		}
		start := len(rows)
		for i := range in {
			if rec, ok := j.fn(in[i]); ok {
				rows = append(rows, rec)
			} else if j.bufferDur > 0 {
				j.pending[in[i].Window] = append(j.pending[in[i].Window], in[i])
			}
		}
		out = append(out, wire.ColSec{Tag: sec.Tag, Rows: carve(rows, start)})
	}
	j.rowScratch = rows[:0]
	cb.Secs = out
}

// Flush implements Operator. With miss buffering enabled, windows closed
// by the watermark re-probe their buffered records once: hits emit,
// remaining misses are dropped (inner-join semantics).
func (j *Join) Flush(watermark int64, emit Emit) {
	if j.bufferDur == 0 {
		return
	}
	for _, w := range j.OpenWindows() {
		if (w+1)*j.bufferDur > watermark {
			continue
		}
		for _, rec := range j.pending[w] {
			if out, ok := j.fn(rec); ok {
				emit(out)
			}
		}
		delete(j.pending, w)
	}
}

// Stateful implements Operator. Joins with a static table keep no
// cross-record state (rule R-3 excludes stream-stream joins from source
// placement; static-table joins are allowed) unless miss buffering is
// enabled.
func (j *Join) Stateful() bool { return j.bufferDur > 0 }

// Reset implements Operator.
func (j *Join) Reset() {
	if j.pending != nil {
		j.pending = make(map[int64]telemetry.Batch)
	}
}

// OpenWindows returns the windows holding buffered misses, ascending
// (Checkpointable; empty without miss buffering).
func (j *Join) OpenWindows() []int64 {
	out := make([]int64, 0, len(j.pending))
	for w := range j.pending {
		out = append(out, w)
	}
	sort.Slice(out, func(i, k int) bool { return out[i] < out[k] })
	return out
}

// SnapshotWindow emits copies of a window's buffered miss records without
// clearing them (Checkpointable). The raw records re-enter a replica of
// this join on restore and are re-probed there.
func (j *Join) SnapshotWindow(w int64, emit Emit) {
	for _, rec := range j.pending[w] {
		emit(rec)
	}
}

// Drain hands every buffered miss downstream immediately as raw records
// and clears the buffer (StatefulDrainer): the SP replica of the join
// re-probes them against its own copy of the table.
func (j *Join) Drain(emit Emit) {
	for _, w := range j.OpenWindows() {
		for _, rec := range j.pending[w] {
			emit(rec)
		}
		delete(j.pending, w)
	}
}

// SrcToRLookup is the first T2TProbe join's probe: PingProbe → probe
// annotated with the source ToR. Records whose source IP misses the table
// are dropped.
func SrcToRLookup(table *telemetry.ToRTable) func(telemetry.Record) (telemetry.Record, bool) {
	return func(rec telemetry.Record) (telemetry.Record, bool) {
		p, ok := rec.Data.(*telemetry.PingProbe)
		if !ok {
			return rec, false
		}
		tor, ok := table.Lookup(p.SrcIP)
		if !ok {
			return rec, false
		}
		out := rec
		out.Data = &srcToRProbe{probe: p, srcToR: tor}
		return out, true
	}
}

// srcToRProbe is the intermediate record between the two T2TProbe joins.
type srcToRProbe struct {
	probe  *telemetry.PingProbe
	srcToR uint32
}

// DstToRLookup is the second T2TProbe join's probe, which also performs
// the projection onto (srcToR, dstToR, rtt): the output is smaller than
// the input, which is why the join still reduces data (paper §VI-B).
func DstToRLookup(table *telemetry.ToRTable) func(telemetry.Record) (telemetry.Record, bool) {
	return func(rec telemetry.Record) (telemetry.Record, bool) {
		sp, ok := rec.Data.(*srcToRProbe)
		if !ok {
			return rec, false
		}
		tor, ok := table.Lookup(sp.probe.DstIP)
		if !ok {
			return rec, false
		}
		out := rec
		out.Data = &telemetry.ToRProbe{
			Timestamp: sp.probe.Timestamp,
			SrcToR:    sp.srcToR,
			DstToR:    tor,
			RTTMicros: sp.probe.RTTMicros,
		}
		out.WireSize = telemetry.ToRProbeWireSize
		return out, true
	}
}
