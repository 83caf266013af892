package operator

import (
	"slices"
	"sort"
	"strings"

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
	// syms is the symbol table behind sym: the operator's own copies of
	// the key parts its byRef caches are keyed on.
	syms map[string]string
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
// Purely numeric keys (the probe queries' case) live in a map hashed on
// the bare uint64 — hashing and comparing the full GroupKey struct (8 B
// + string header) costs ~2× per record on the aggregation hot path.
type aggWindow struct {
	num map[uint64]*aggCell             // keys with Str == ""
	str map[telemetry.GroupKey]*aggCell // keys carrying a string
	gen uint64
	// byRef caches cells under their columnar refs (tenant, statName,
	// bucket) so the SoA JobStats kernel assembles the canonical string
	// key once per group, not once per row. Entries alias cells of str;
	// the cache dies with the window.
	byRef map[jobRefKey]*aggCell
	// cache is a direct-mapped front for num, indexed by a Fibonacci
	// hash of the key. The SoA aggregation kernels re-observe the same
	// hot groups every epoch, and the map probe (hash + SIMD group
	// scan) dominates their per-record cost; a cache hit replaces it
	// with one multiply, one compare and one load. Entries never go
	// stale: a window's key→cell binding is append-only (every store
	// site is guarded by a lookup miss), so a cached pointer stays the
	// canonical cell until the window itself is deleted.
	cache      []aggCellSlot
	cacheShift uint8
}

// aggCellSlot is one direct-mapped cache entry; cell == nil marks empty.
type aggCellSlot struct {
	key  uint64
	cell *aggCell
}

// Cache sizing: start at 4096 slots (64 KiB) and quadruple while the
// window holds more numeric groups than half the slot count, capped at
// 65536 slots (1 MiB) — at the paper's Pingmesh cardinality (~20k live
// pairs per window) that settles at a ~0.3 load factor. Growth is
// checked once per run of equal window ids, not per record, and resets
// the slots (they refill from map hits within one section).
const (
	aggCacheMinSlots = 1 << 12
	aggCacheMaxSlots = 1 << 16
)

// wantCacheGrow reports whether the window's cell cache is absent or
// undersized for its current group count.
func (w *aggWindow) wantCacheGrow() bool {
	return w.cache == nil ||
		(len(w.num) > len(w.cache)>>1 && len(w.cache) < aggCacheMaxSlots)
}

func (w *aggWindow) growCache() {
	size := aggCacheMinSlots
	for size <= 2*len(w.num) && size < aggCacheMaxSlots {
		size <<= 2
	}
	if len(w.cache) >= size {
		return
	}
	w.cache = make([]aggCellSlot, size)
	shift := uint8(64)
	for s := size; s > 1; s >>= 1 {
		shift--
	}
	w.cacheShift = shift
}

// aggCell is one group's row plus its newest touch stamp.
type aggCell struct {
	row telemetry.AggRow
	gen uint64
}

func (w *aggWindow) lookup(key telemetry.GroupKey) *aggCell {
	if key.Str == "" {
		return w.num[key.Num]
	}
	return w.str[key]
}

func (w *aggWindow) store(key telemetry.GroupKey, cell *aggCell) {
	if key.Str == "" {
		w.num[key.Num] = cell
		return
	}
	if w.str == nil {
		w.str = make(map[telemetry.GroupKey]*aggCell)
	}
	w.str[key] = cell
}

func (w *aggWindow) count() int { return len(w.num) + len(w.str) }

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

// window returns (creating if needed) the state for window id w.
func (g *GroupAgg) window(w int64) *aggWindow {
	win := g.state[w]
	if win == nil {
		win = &aggWindow{num: make(map[uint64]*aggCell)}
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
			g.aggJobStatsCount(sec)
		case sec.Job != nil && g.kernel == AggKernelJobStatsDur:
			g.aggJobStatsDur(sec)
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
			win.store(key, &aggCell{row: telemetry.NewAggRow(key, rec.Window, val), gen: g.gen})
			continue
		}
		cell.row.Observe(val)
		cell.gen = g.gen
	}
}

func (g *GroupAgg) mergePartial(window int64, partial *telemetry.AggRow) {
	if partial.Window != 0 {
		window = partial.Window
	}
	win := g.window(window)
	win.gen = g.gen
	cell := win.lookup(partial.Key)
	if cell == nil {
		cell = &aggCell{row: *partial, gen: g.gen}
		cell.row.Window = window
		win.store(partial.Key, cell)
		return
	}
	cell.row.Merge(*partial)
	cell.gen = g.gen
}

// AbsorbSnapshot implements SnapshotAbsorber: it merges a whole batch of
// AggRow snapshot rows with one arena allocation for all new groups,
// instead of one heap row per group — the bulk restore path.
func (g *GroupAgg) AbsorbSnapshot(rows telemetry.Batch) bool {
	for i := range rows {
		if _, ok := rows[i].Data.(*telemetry.AggRow); !ok {
			return false
		}
	}
	cells := make([]aggCell, len(rows))
	k := 0
	for i := range rows {
		partial := rows[i].Data.(*telemetry.AggRow)
		window := rows[i].Window
		if partial.Window != 0 {
			window = partial.Window
		}
		win := g.window(window)
		win.gen = g.gen
		cell := win.lookup(partial.Key)
		if cell == nil {
			cell = &cells[k]
			k++
			cell.row = *partial
			cell.row.Window = window
			cell.gen = g.gen
			win.store(partial.Key, cell)
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
// aggregating. Unlike Flush, snapshot rows are unsorted: they restore by
// merging into a replica's hash state, where order is irrelevant, and
// skipping the sort keeps the per-epoch checkpoint overhead low.
func (g *GroupAgg) SnapshotWindow(w int64, emit Emit) {
	g.emitRows(w, (w+1)*g.windowDur, false, 0, emit)
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
	g.emitRows(w, (w+1)*g.windowDur, false, g.gen, emit)
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

func (g *GroupAgg) emitWindow(w, end int64, emit Emit) {
	g.emitRows(w, end, true, 0, emit)
}

// emitRows copies a window's rows into an arena and emits them. minGen
// filters to cells stamped at or above it (0 = all); sorted orders the
// output by key for deterministic Flush emission.
func (g *GroupAgg) emitRows(w, end int64, sorted bool, minGen uint64, emit Emit) {
	win := g.state[w]
	if win == nil {
		return
	}
	// One pass over the maps copies every row into an arena — no
	// per-group heap AggRow and no second map lookup after sorting (a
	// row's Key always equals its map key). Flush and snapshot emit tens
	// of thousands of rows per window; this path dominates checkpoint
	// cost.
	arena := make([]telemetry.AggRow, 0, win.count())
	for _, cell := range win.num {
		if cell.gen >= minGen {
			arena = append(arena, cell.row)
		}
	}
	for _, cell := range win.str {
		if cell.gen >= minGen {
			arena = append(arena, cell.row)
		}
	}
	if sorted {
		sortAggRows(arena)
	}
	for i := range arena {
		emit(telemetry.Record{
			Time:     end,
			WireSize: arena[i].AggRowWireSize(),
			Window:   arena[i].Window,
			Data:     &arena[i],
		})
	}
}

// sortAggRows orders rows by key (Num, Str); string comparison is
// skipped entirely when no key carries a string (the common case for
// probe queries).
func sortAggRows(arena []telemetry.AggRow) {
	numericOnly := true
	for i := range arena {
		if arena[i].Key.Str != "" {
			numericOnly = false
			break
		}
	}
	if numericOnly {
		slices.SortFunc(arena, func(a, b telemetry.AggRow) int {
			switch {
			case a.Key.Num < b.Key.Num:
				return -1
			case a.Key.Num > b.Key.Num:
				return 1
			default:
				return 0
			}
		})
		return
	}
	slices.SortFunc(arena, func(a, b telemetry.AggRow) int {
		switch {
		case a.Key.Num < b.Key.Num:
			return -1
		case a.Key.Num > b.Key.Num:
			return 1
		}
		return strings.Compare(a.Key.Str, b.Key.Str)
	})
}

// sortedKeys returns a window's group keys ordered by (Num, Str) — the
// shared helper for operators that emit via per-key clones.
func sortedKeys[V any](win map[telemetry.GroupKey]V) []telemetry.GroupKey {
	keys := make([]telemetry.GroupKey, 0, len(win))
	for k := range win {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b telemetry.GroupKey) int {
		switch {
		case a.Num < b.Num:
			return -1
		case a.Num > b.Num:
			return 1
		}
		return strings.Compare(a.Str, b.Str)
	})
	return keys
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
