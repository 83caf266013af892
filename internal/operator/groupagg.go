package operator

import (
	"sort"

	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
)

// GroupAgg implements GroupApply + Aggregate over tumbling windows with
// incrementally updatable aggregates (count/sum/avg/min/max), the class
// rule R-1 admits on data sources.
//
// It accepts two input shapes:
//
//   - raw records: keyFn/valFn extract the group key and the aggregated
//     value;
//   - *telemetry.AggRow payloads: partial aggregates from an upstream
//     replica of this same operator, merged into local state.
//
// Windows close when Flush is called with a watermark at or past the
// window end; each group then emits one AggRow record.
type GroupAgg struct {
	name      string
	windowDur int64
	keyFn     func(telemetry.Record) telemetry.GroupKey
	valFn     func(telemetry.Record) float64
	// state: window id → keyed cells, with dirty-generation stamps for
	// incremental snapshots (DeltaCheckpointable).
	state map[int64]*aggWindow
	// gen is the current dirty generation; every touch stamps the cell
	// and its window with it, and MarkClean advances it. A cell is dirty
	// iff its stamp equals the current generation.
	gen uint64
	// closed collects windows flushed/drained since the last MarkClean
	// (delta tombstones). Bounded: without checkpointing nothing ever
	// calls MarkClean, so past maxClosedTombstones the list is dropped
	// and closedLost set — the next delta capture falls back to a full
	// one instead of leaking memory forever.
	closed     []int64
	closedLost bool
	// kernel selects the columnar aggregation loop (SetAggKernel);
	// colScratch backs per-section row materialization for sections
	// without a kernel.
	kernel     AggKernel
	colScratch telemetry.Batch
	// syms numbers the JobStats key parts (tenant, stat name) the
	// windows' id indexes are keyed on, holding the operator's own copy of
	// each; front answers a section's repeats of them (symID).
	syms  map[string]uint32
	front *symFront
	// spare is the numeric table of the last window closed, emptied: the
	// next window opened takes it. Without one, a new window's table is
	// presized for numHint, the numeric group count of the last close.
	spare   numTable
	numHint int
	// order and strCells are window-close scratch: the ordering routine's
	// buffers and the string-keyed cells of the window being emitted.
	order    keyOrder
	strCells []*aggCell
}

// maxClosedTombstones bounds the closed-window list an operator keeps
// between MarkClean calls. Even at every-epoch windows this covers
// over an hour of cadence gap; overflowing just forces the next
// snapshot full.
const maxClosedTombstones = 4096

// noteClosed records one flushed/drained window for delta tombstones.
func (g *GroupAgg) noteClosed(w int64) {
	if g.closedLost {
		return
	}
	if len(g.closed) >= maxClosedTombstones {
		g.closed = g.closed[:0]
		g.closedLost = true
		return
	}
	g.closed = append(g.closed, w)
}

// aggWindow is one window's group state plus its newest touch stamp.
// Purely numeric keys (the probe queries' case) live in nums, one flat
// table keyed on the bare uint64 with its cells in insertion order;
// keys carrying a string live in str, one heap cell per group.
type aggWindow struct {
	nums numTable                        // keys with Str == ""
	str  map[telemetry.GroupKey]*aggCell // keys carrying a string
	gen  uint64
	// jobs finds cells of str by symbol ids so the SoA JobStats kernel
	// assembles the canonical string key once per group, not once per
	// row; it dies with the window.
	jobs jobIndex
}

// aggCell is one group's row plus its newest touch stamp.
type aggCell struct {
	row telemetry.AggRow
	gen uint64
}

// lookup returns key's cell, or nil. A numeric key's cell is valid until
// the window's next store.
func (w *aggWindow) lookup(key telemetry.GroupKey) *aggCell {
	if key.Str == "" {
		c, _ := w.nums.find(key.Num)
		return c
	}
	return w.str[key]
}

// store adds a group the window does not hold yet, keyed on its row's
// key, and returns its cell.
func (w *aggWindow) store(c aggCell) *aggCell {
	if c.row.Key.Str == "" {
		return w.nums.insert(nil, c)
	}
	p := new(aggCell)
	*p = c
	return w.adopt(p)
}

// adopt files a string-keyed cell the caller allocated under its key.
func (w *aggWindow) adopt(c *aggCell) *aggCell {
	if w.str == nil {
		w.str = make(map[telemetry.GroupKey]*aggCell)
	}
	w.str[c.row.Key] = c
	return c
}

func (w *aggWindow) count() int { return len(w.nums.cells) + len(w.str) }

// NewGroupAgg creates a grouping/aggregation operator. windowDurMicros
// must match the upstream Window operator so flushed window ids map to
// the correct end times.
func NewGroupAgg(name string, windowDurMicros int64,
	keyFn func(telemetry.Record) telemetry.GroupKey,
	valFn func(telemetry.Record) float64) *GroupAgg {
	if windowDurMicros <= 0 {
		panic("operator: group window duration must be positive")
	}
	return &GroupAgg{
		name:      name,
		windowDur: windowDurMicros,
		keyFn:     keyFn,
		valFn:     valFn,
		state:     make(map[int64]*aggWindow),
		gen:       1,
	}
}

// window returns (creating if needed) the state for window id w; a new
// window takes the spare numeric table, or one presized for the last
// closed window's groups.
func (g *GroupAgg) window(w int64) *aggWindow {
	win := g.state[w]
	if win == nil {
		win = &aggWindow{nums: g.spare}
		if g.spare.slots == nil {
			win.nums = newNumTable(g.numHint)
		}
		g.spare = numTable{}
		g.state[w] = win
	}
	return win
}

// Name implements Operator.
func (g *GroupAgg) Name() string { return g.name }

// Kind implements Operator.
func (g *GroupAgg) Kind() Kind { return KindGroupAgg }

// Stateful implements Operator.
func (g *GroupAgg) Stateful() bool { return true }

// Reset implements Operator.
func (g *GroupAgg) Reset() {
	g.state = make(map[int64]*aggWindow)
	g.gen++
	g.closed = g.closed[:0]
	g.closedLost = false
}

// GroupCount returns the number of open groups in a window (cost-model
// input: hash size drives G+R cost).
func (g *GroupAgg) GroupCount(window int64) int {
	if win := g.state[window]; win != nil {
		return win.count()
	}
	return 0
}

// OpenWindows returns the ids of windows with unflushed state, ascending.
func (g *GroupAgg) OpenWindows() []int64 {
	out := make([]int64, 0, len(g.state))
	for w := range g.state {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ProcessColumnar implements Operator. Results leave via Flush, so the
// wave is consumed whole: partial AggRow sections merge straight from
// their columns, raw sections with a matching kernel aggregate straight
// from theirs (no record, key-struct or key-string per row), and
// everything else — Rows sections, sections without a kernel — goes
// through the row routine.
func (g *GroupAgg) ProcessColumnar(cb *wire.ColumnarBatch) {
	for si := range cb.Secs {
		sec := &cb.Secs[si]
		switch {
		case sec.Rows != nil:
			g.observeRows(sec.Rows)
		case sec.Agg != nil:
			g.mergeAggCols(sec)
		case sec.Ping != nil && g.kernel == AggKernelPingPairRTT:
			g.aggPingPairRTT(sec)
		case sec.ToR != nil && g.kernel == AggKernelToRPairRTT:
			g.aggToRPairRTT(sec)
		case sec.Job != nil && g.kernel == AggKernelJobStatsCount:
			g.aggJobStats(sec, false)
		case sec.Job != nil && g.kernel == AggKernelJobStatsDur:
			g.aggJobStats(sec, true)
		default:
			g.colScratch = g.colScratch[:0]
			sec.AppendRows(&g.colScratch)
			g.observeRows(g.colScratch)
		}
	}
	cb.Reset()
}

// observeRows is the row routine: partial AggRow payloads merge, raw
// records fold into their group through keyFn/valFn, stamping the dirty
// generation. A batch's records overwhelmingly share one tumbling
// window, so the window map entry is resolved once per run of equal
// window ids instead of per record.
func (g *GroupAgg) observeRows(in telemetry.Batch) {
	var win *aggWindow
	haveWin := false
	winID := int64(0)
	for i := range in {
		rec := &in[i]
		if row, ok := rec.Data.(*telemetry.AggRow); ok {
			g.mergePartial(rec.Window, row)
			continue
		}
		if !haveWin || rec.Window != winID {
			win = g.window(rec.Window)
			win.gen = g.gen
			winID, haveWin = rec.Window, true
		}
		key := g.keyFn(*rec)
		val := g.valFn(*rec)
		cell := win.lookup(key)
		if cell == nil {
			win.store(aggCell{row: telemetry.NewAggRow(key, rec.Window, val), gen: g.gen})
			continue
		}
		cell.row.Observe(val)
		cell.gen = g.gen
	}
}

func (g *GroupAgg) mergePartial(window int64, partial *telemetry.AggRow) {
	window = partialWindow(window, partial)
	win := g.window(window)
	win.gen = g.gen
	cell := win.lookup(partial.Key)
	if cell == nil {
		c := aggCell{row: *partial, gen: g.gen}
		c.row.Window = window
		win.store(c)
		return
	}
	cell.row.Merge(*partial)
	cell.gen = g.gen
}

// partialWindow is the window a partial row merges into: its own, or the
// carrying record's when the row names none.
func partialWindow(window int64, partial *telemetry.AggRow) int64 {
	if partial.Window != 0 {
		return partial.Window
	}
	return window
}

// AbsorbSnapshot implements SnapshotAbsorber: the bulk restore path. A
// window it opens is presized for its own numeric and string-keyed rows
// in the batch (one batch holds every open window of a stage), and all
// new string-keyed groups share one arena allocation instead of one heap
// cell each.
func (g *GroupAgg) AbsorbSnapshot(rows telemetry.Batch) bool {
	nStr, numRows, strRows := 0, make(map[int64]int), make(map[int64]int)
	for i := range rows {
		row, ok := rows[i].Data.(*telemetry.AggRow)
		if !ok {
			return false
		}
		if w := partialWindow(rows[i].Window, row); row.Key.Str != "" {
			nStr++
			strRows[w]++
		} else {
			numRows[w]++
		}
	}
	strCells := make([]aggCell, nStr)
	k := 0
	for i := range rows {
		partial := rows[i].Data.(*telemetry.AggRow)
		window := partialWindow(rows[i].Window, partial)
		win := g.state[window]
		if win == nil {
			win = &aggWindow{nums: newNumTable(numRows[window])}
			if n := strRows[window]; n > 0 {
				win.str = make(map[telemetry.GroupKey]*aggCell, n)
			}
			g.state[window] = win
		}
		win.gen = g.gen
		cell := win.lookup(partial.Key)
		if cell == nil {
			c := aggCell{row: *partial, gen: g.gen}
			c.row.Window = window
			if c.row.Key.Str == "" {
				win.nums.insert(nil, c)
			} else {
				strCells[k] = c
				win.adopt(&strCells[k])
				k++
			}
			continue
		}
		cell.row.Merge(*partial)
		cell.gen = g.gen
	}
	return true
}

// Flush implements Operator: emits and clears every window whose end time
// is at or before the watermark. Output records are sorted by (window,
// key) for determinism.
func (g *GroupAgg) Flush(watermark int64, emit Emit) {
	for _, w := range g.OpenWindows() {
		end := (w + 1) * g.windowDur
		if end > watermark {
			continue
		}
		g.emitWindow(w, end, emit)
		delete(g.state, w)
		g.noteClosed(w)
	}
}

// Drain emits every open window's partial state as AggRow records without
// waiting for the watermark, then clears the state. Used when the data
// source checkpoints or hands partial state to the stream processor
// (paper §IV-E fault tolerance, §V stateful relay).
func (g *GroupAgg) Drain(emit Emit) {
	for _, w := range g.OpenWindows() {
		end := (w + 1) * g.windowDur
		g.emitWindow(w, end, emit)
		delete(g.state, w)
		g.noteClosed(w)
	}
}

// SnapshotWindow emits copies of a window's partial rows without
// clearing state — checkpointing support (paper §IV-E): the emitted rows
// can reconstruct the window on another node while this one keeps
// aggregating. Unlike Flush, snapshot rows are not sorted (see emitRows):
// they restore by merging into a replica's state, where order is
// irrelevant.
func (g *GroupAgg) SnapshotWindow(w int64, emit Emit) {
	g.emitRows(w, (w+1)*g.windowDur, 0, emit)
}

// DirtyWindows implements DeltaCheckpointable.
func (g *GroupAgg) DirtyWindows() []int64 {
	out := make([]int64, 0, len(g.state))
	for w, win := range g.state {
		if win.gen == g.gen {
			out = append(out, w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SnapshotDirtyWindow implements DeltaCheckpointable: like
// SnapshotWindow but only rows touched since the last MarkClean.
func (g *GroupAgg) SnapshotDirtyWindow(w int64, emit Emit) {
	g.emitRows(w, (w+1)*g.windowDur, g.gen, emit)
}

// ClosedWindows implements DeltaCheckpointable.
func (g *GroupAgg) ClosedWindows() ([]int64, bool) {
	if g.closedLost {
		return nil, false
	}
	out := append([]int64(nil), g.closed...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, true
}

// MarkClean implements DeltaCheckpointable: rows touched from now on
// belong to the next snapshot's delta.
func (g *GroupAgg) MarkClean() {
	g.gen++
	g.closed = g.closed[:0]
	g.closedLost = false
}

// emitWindow emits a closing window's rows ordered by key — (Num, Str),
// through the operator's keyOrder — and hands its numeric table, emptied,
// to the next window (the rows emitted are copies).
func (g *GroupAgg) emitWindow(w, end int64, emit Emit) {
	win := g.state[w]
	if win == nil {
		return
	}
	nums, strs := win.nums.cells, g.strCells[:0]
	for _, c := range win.str {
		strs = append(strs, c)
	}
	cell := func(i int) *aggCell {
		if i < len(nums) {
			return &nums[i]
		}
		return strs[i-len(nums)]
	}
	arena := make([]telemetry.AggRow, 0, len(nums)+len(strs))
	for _, e := range g.order.sort(len(nums)+len(strs), func(i int) telemetry.GroupKey { return cell(i).row.Key }) {
		arena = append(arena, cell(int(e.idx)).row)
	}
	clear(strs)
	g.strCells = strs[:0]
	g.numHint = len(nums)
	win.nums.reset()
	g.spare, win.nums = win.nums, numTable{}
	emitArena(arena, end, emit)
}

// emitRows emits copies of a window's rows — numeric groups in insertion
// order, then string-keyed ones in map order — filtered to cells stamped
// at or above minGen (0 = all): the snapshot path, where order does not
// matter to the restore and skipping the sort keeps captures cheap.
func (g *GroupAgg) emitRows(w, end int64, minGen uint64, emit Emit) {
	win := g.state[w]
	if win == nil {
		return
	}
	arena := make([]telemetry.AggRow, 0, win.count())
	for i := range win.nums.cells {
		if c := &win.nums.cells[i]; c.gen >= minGen {
			arena = append(arena, c.row)
		}
	}
	for _, c := range win.str {
		if c.gen >= minGen {
			arena = append(arena, c.row)
		}
	}
	emitArena(arena, end, emit)
}

// emitArena emits each row of a fresh arena as a record pointing into it:
// Flush and snapshot emit tens of thousands of rows per window, so no row
// gets a heap copy of its own.
func emitArena(arena []telemetry.AggRow, end int64, emit Emit) {
	for i := range arena {
		emit(telemetry.Record{
			Time:     end,
			WireSize: arena[i].AggRowWireSize(),
			Window:   arena[i].Window,
			Data:     &arena[i],
		})
	}
}

// Key and value extractors for the paper's queries.

// ProbePairKey groups PingProbes by (srcIP, dstIP) — S2SProbe.
func ProbePairKey(rec telemetry.Record) telemetry.GroupKey {
	return telemetry.NumKey(rec.Data.(*telemetry.PingProbe).PairKey())
}

// ProbeRTT extracts a probe's RTT in microseconds.
func ProbeRTT(rec telemetry.Record) float64 {
	return float64(rec.Data.(*telemetry.PingProbe).RTTMicros)
}

// ToRPairKey groups ToRProbes by (srcToR, dstToR) — T2TProbe.
func ToRPairKey(rec telemetry.Record) telemetry.GroupKey {
	return telemetry.NumKey(rec.Data.(*telemetry.ToRProbe).PairKey())
}

// ToRRTT extracts a joined probe's RTT in microseconds.
func ToRRTT(rec telemetry.Record) float64 {
	return float64(rec.Data.(*telemetry.ToRProbe).RTTMicros)
}

// JobStatsKey groups parsed log stats by (tenant, statName, bucket) —
// LogAnalytics.
func JobStatsKey(rec telemetry.Record) telemetry.GroupKey {
	j := rec.Data.(*telemetry.JobStats)
	return telemetry.StrKey(j.Tenant + "|" + j.StatName + "|" + itoa(j.Bucket))
}

// JobStatsOne returns 1: the LogAnalytics aggregate is a count.
func JobStatsOne(telemetry.Record) float64 { return 1 }

// JobStatsVal extracts the Stat value — TraceSpanAgg folds span
// durations (milliseconds) instead of counting.
func JobStatsVal(rec telemetry.Record) float64 {
	return rec.Data.(*telemetry.JobStats).Stat
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
