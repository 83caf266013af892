package operator

import (
	"sort"

	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
)

// GroupQuantile is GroupApply + approximate-quantile aggregation. Exact
// quantiles are not incrementally updatable and rule R-1 bars them from
// data sources, but their approximate counterparts — fixed-bucket
// histograms whose merge is bucket-wise addition — are mergeable and
// "can benefit from Jarvis" (paper §IV-B, citing the authors' earlier
// datacenter-telemetry quantile work). This operator demonstrates that
// extension: per (group, window) it maintains an equi-width histogram
// over [Lo, Hi) with Buckets cells plus overflow, answers quantile
// queries by interpolation, and merges partial sketches exactly like
// GroupAgg merges AggRows.
type GroupQuantile struct {
	name      string
	windowDur int64
	keyFn     func(telemetry.Record) telemetry.GroupKey
	valFn     func(telemetry.Record) float64

	lo, hi  float64
	buckets int

	state map[int64]map[telemetry.GroupKey]*telemetry.QuantileRow

	// kernel selects the SoA bulk-observe loop (SetAggKernel); colScratch
	// backs per-section row materialization for sections it does not
	// cover.
	kernel     AggKernel
	colScratch telemetry.Batch
	// order is the window-close ordering routine's scratch.
	order keyOrder
}

// NewGroupQuantile creates the operator. The histogram range [lo, hi)
// and bucket count bound the quantile error to one bucket width.
func NewGroupQuantile(name string, windowDurMicros int64,
	keyFn func(telemetry.Record) telemetry.GroupKey,
	valFn func(telemetry.Record) float64,
	lo, hi float64, buckets int) *GroupQuantile {
	if windowDurMicros <= 0 {
		panic("operator: quantile window duration must be positive")
	}
	if buckets < 1 {
		buckets = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &GroupQuantile{
		name: name, windowDur: windowDurMicros,
		keyFn: keyFn, valFn: valFn,
		lo: lo, hi: hi, buckets: buckets,
		state: make(map[int64]map[telemetry.GroupKey]*telemetry.QuantileRow),
	}
}

// Name implements Operator.
func (g *GroupQuantile) Name() string { return g.name }

// Kind implements Operator.
func (g *GroupQuantile) Kind() Kind { return KindGroupAgg }

// Stateful implements Operator.
func (g *GroupQuantile) Stateful() bool { return true }

// Reset implements Operator.
func (g *GroupQuantile) Reset() {
	g.state = make(map[int64]map[telemetry.GroupKey]*telemetry.QuantileRow)
}

// ProcessColumnar implements Operator. Like GroupAgg, results leave via
// Flush, so the wave is consumed whole: raw sections with a matching
// kernel bulk-append their value column into the per-group sketches
// straight from the columns; partial QuantileRow payloads (which have no
// SoA layout and always arrive as Rows) and everything else go through
// the row routine.
func (g *GroupQuantile) ProcessColumnar(cb *wire.ColumnarBatch) {
	for si := range cb.Secs {
		sec := &cb.Secs[si]
		switch {
		case sec.Rows != nil:
			g.observeRows(sec.Rows)
		case sec.Ping != nil && g.kernel == AggKernelPingPairRTT:
			g.quantPingPairRTT(sec)
		case sec.ToR != nil && g.kernel == AggKernelToRPairRTT:
			g.quantToRPairRTT(sec)
		default:
			g.colScratch = g.colScratch[:0]
			sec.AppendRows(&g.colScratch)
			g.observeRows(g.colScratch)
		}
	}
	cb.Reset()
}

// observeRows is the row routine: raw records update the group's sketch;
// *telemetry.QuantileRow payloads (partials from a replica) merge in.
func (g *GroupQuantile) observeRows(in telemetry.Batch) {
	for i := range in {
		rec := in[i]
		if row, ok := rec.Data.(*telemetry.QuantileRow); ok {
			g.mergePartial(rec.Window, row)
			continue
		}
		win := g.state[rec.Window]
		if win == nil {
			win = make(map[telemetry.GroupKey]*telemetry.QuantileRow)
			g.state[rec.Window] = win
		}
		key := g.keyFn(rec)
		row := win[key]
		if row == nil {
			row = telemetry.NewQuantileRow(key, rec.Window, g.lo, g.hi, g.buckets)
			win[key] = row
		}
		row.Observe(g.valFn(rec))
	}
}

func (g *GroupQuantile) mergePartial(window int64, partial *telemetry.QuantileRow) {
	if partial.Window != 0 {
		window = partial.Window
	}
	win := g.state[window]
	if win == nil {
		win = make(map[telemetry.GroupKey]*telemetry.QuantileRow)
		g.state[window] = win
	}
	row := win[partial.Key]
	if row == nil {
		cp := partial.Clone()
		cp.Window = window
		win[partial.Key] = cp
		return
	}
	if err := row.Merge(partial); err != nil {
		// Incompatible sketch shapes cannot merge; drop the partial
		// rather than corrupt the row (callers configure both replicas
		// identically, so this is defensive).
		return
	}
}

// AbsorbSnapshot implements SnapshotAbsorber: restored sketches that
// open new groups are adopted wholesale (ownership transfer — the
// caller's rows came from a freshly decoded snapshot and are not reused)
// instead of cloned per group.
func (g *GroupQuantile) AbsorbSnapshot(rows telemetry.Batch) bool {
	for i := range rows {
		if _, ok := rows[i].Data.(*telemetry.QuantileRow); !ok {
			return false
		}
	}
	for i := range rows {
		partial := rows[i].Data.(*telemetry.QuantileRow)
		window := rows[i].Window
		if partial.Window != 0 {
			window = partial.Window
		}
		win := g.state[window]
		if win == nil {
			win = make(map[telemetry.GroupKey]*telemetry.QuantileRow)
			g.state[window] = win
		}
		row := win[partial.Key]
		if row == nil {
			partial.Window = window
			win[partial.Key] = partial
			continue
		}
		// Incompatible shapes are dropped, matching mergePartial.
		_ = row.Merge(partial)
	}
	return true
}

// Flush implements Operator: emits one QuantileRow per group for every
// window closed by the watermark.
func (g *GroupQuantile) Flush(watermark int64, emit Emit) {
	for _, w := range g.openWindows() {
		end := (w + 1) * g.windowDur
		if end > watermark {
			continue
		}
		g.emitWindow(w, end, emit)
		delete(g.state, w)
	}
}

// Drain emits all open windows' partial sketches and clears state (the
// stateful drain path, like GroupAgg.Drain).
func (g *GroupQuantile) Drain(emit Emit) {
	for _, w := range g.openWindows() {
		g.emitWindow(w, (w+1)*g.windowDur, emit)
		delete(g.state, w)
	}
}

// OpenWindows returns the ids of windows with unflushed state, ascending
// (Checkpointable).
func (g *GroupQuantile) OpenWindows() []int64 { return g.openWindows() }

// SnapshotWindow emits copies of a window's partial sketches without
// clearing state (Checkpointable). Snapshot rows are unsorted — they
// restore by merging into replica hash state, where order is irrelevant.
func (g *GroupQuantile) SnapshotWindow(w int64, emit Emit) {
	win := g.state[w]
	end := (w + 1) * g.windowDur
	for _, row := range win {
		cp := row.Clone()
		emit(telemetry.Record{
			Time:     end,
			Window:   w,
			WireSize: cp.WireSize(),
			Data:     cp,
		})
	}
}

func (g *GroupQuantile) openWindows() []int64 {
	out := make([]int64, 0, len(g.state))
	for w := range g.state {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// emitWindow emits clones of a window's sketches ordered by key — (Num,
// Str), through the operator's keyOrder.
func (g *GroupQuantile) emitWindow(w, end int64, emit Emit) {
	win := g.state[w]
	keys := make([]telemetry.GroupKey, 0, len(win))
	for k := range win {
		keys = append(keys, k)
	}
	for _, e := range g.order.sort(len(keys), func(i int) telemetry.GroupKey { return keys[i] }) {
		row := win[keys[e.idx]].Clone()
		emit(telemetry.Record{
			Time:     end,
			Window:   w,
			WireSize: row.WireSize(),
			Data:     row,
		})
	}
}

// GroupCount returns the number of open groups in a window (cost-model
// and snapshot-capacity hint, like GroupAgg.GroupCount).
func (g *GroupQuantile) GroupCount(window int64) int { return len(g.state[window]) }
