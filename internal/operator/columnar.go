package operator

import (
	"strings"

	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
)

// Columnar (SoA) execution. Both engines drive whole waves
// (wire.ColumnarBatch) through Operator.ProcessColumnar, so the hot
// per-record work — window assignment, filter predicates, group-key
// extraction — runs over contiguous columns instead of materialized
// telemetry.Record structs. This file holds the kernel types the plan
// layer wires into operators and the SoA aggregation kernels.
//
// ProcessColumnar mutates the wave in place under the wire package's
// mutation discipline: an operator never writes through a column or row
// array it received (those may be shared with the decoded frame or the
// caller's batch); it allocates replacements and swaps the section
// fields. Filters narrow sections via selection vectors; flat-maps
// rebuild the section list; GroupAgg consumes the wave entirely (its
// results leave via Flush). A kernel must be observably equivalent to the
// operator's row routine over the section's materialized live rows —
// section types an operator has no kernel for are materialized per
// section, so a wave stays columnar wherever it can.

// ColumnarPred compiles a filter predicate against one SoA section: it
// returns a per-live-row predicate over the column index, or ok=false
// when the section's type cannot be evaluated columnar (the filter then
// materializes that section and applies the row predicate).
type ColumnarPred func(sec *wire.ColSec) (keep func(i int) bool, ok bool)

// ColumnarMapKernel transforms one SoA section, appending zero or more
// replacement sections to out. It reports false when it cannot handle
// the section's type; the Map then falls back to materializing that
// section's rows. Kernels must compact away the input's selection
// vector (output sections carry only live rows) and must not write
// through the input section's columns.
type ColumnarMapKernel func(sec *wire.ColSec, out *[]wire.ColSec) bool

// ColumnarJoinKernel probes one SoA section through a static-table join,
// appending zero or more replacement sections to out (typically one
// compacted section of the surviving, projected rows). It reports false
// when it cannot handle the section's type; the Join then falls back to
// materializing that section's rows and probing them one at a time.
// Like map kernels, join kernels must compact away the input's selection
// vector and must not write through the input section's columns.
type ColumnarJoinKernel func(sec *wire.ColSec, out *[]wire.ColSec) bool

// AggKernel selects GroupAgg's SoA aggregation loop. A kernel must
// compute exactly the same group key and value as the operator's
// keyFn/valFn (the plan layer wires them together); sections a kernel
// does not cover fall back to per-section row materialization.
type AggKernel int

// GroupAgg columnar kernels for the canonical queries' extractors.
const (
	// AggKernelNone disables SoA aggregation of raw sections (partial
	// AggRow sections still merge columnar).
	AggKernelNone AggKernel = iota
	// AggKernelPingPairRTT keys ping sections on the packed numeric
	// (srcIP<<32 | dstIP) pair and aggregates RTT — ProbePairKey/ProbeRTT.
	AggKernelPingPairRTT
	// AggKernelToRPairRTT keys ToR sections on (srcToR<<32 | dstToR) and
	// aggregates RTT — ToRPairKey/ToRRTT.
	AggKernelToRPairRTT
	// AggKernelJobStatsCount keys JobStats sections on
	// (tenant, statName, bucket) and counts — JobStatsKey/JobStatsOne.
	// The string form "tenant|statName|bucket" is assembled once per
	// group (when the group is first seen), not once per row: lookups go
	// through a per-window cache keyed on the column strings.
	AggKernelJobStatsCount
	// AggKernelJobStatsDur keys JobStats sections like
	// AggKernelJobStatsCount but aggregates the Stat value instead of
	// counting — JobStatsKey/JobStatsVal. The TraceSpanAgg query uses it
	// to fold span durations per (service, operation) key.
	AggKernelJobStatsDur
)

// --- GroupQuantile ---

// SetAggKernel installs the SoA bulk-observe loop matching the
// operator's key/value extractors (the same kernel ids GroupAgg uses).
func (g *GroupQuantile) SetAggKernel(k AggKernel) { g.kernel = k }

// quantState lets observeNumKeyed resolve the window map once per run of
// equal window ids.
type quantState struct {
	win     map[telemetry.GroupKey]*telemetry.QuantileRow
	winID   int64
	haveWin bool
}

func (g *GroupQuantile) observeNumKeyed(st *quantState, window int64, key uint64, val float64) {
	if !st.haveWin || window != st.winID {
		win := g.state[window]
		if win == nil {
			win = make(map[telemetry.GroupKey]*telemetry.QuantileRow)
			g.state[window] = win
		}
		st.win, st.winID, st.haveWin = win, window, true
	}
	k := telemetry.NumKey(key)
	row := st.win[k]
	if row == nil {
		row = telemetry.NewQuantileRow(k, window, g.lo, g.hi, g.buckets)
		st.win[k] = row
	}
	row.Observe(val)
}

// quantPingPairRTT bulk-appends a ping section's RTT column into the
// per-pair sketches — ProbePairKey/ProbeRTT without Records.
func (g *GroupQuantile) quantPingPairRTT(sec *wire.ColSec) {
	c := sec.Ping
	var st quantState
	if sec.Sel != nil {
		for _, i := range sec.Sel {
			key := uint64(c.SrcIP[i])<<32 | uint64(c.DstIP[i])
			g.observeNumKeyed(&st, sec.Windows[i], key, float64(c.RTT[i]))
		}
		return
	}
	for i := range sec.Times {
		key := uint64(c.SrcIP[i])<<32 | uint64(c.DstIP[i])
		g.observeNumKeyed(&st, sec.Windows[i], key, float64(c.RTT[i]))
	}
}

// quantToRPairRTT is quantPingPairRTT for ToR sections.
func (g *GroupQuantile) quantToRPairRTT(sec *wire.ColSec) {
	c := sec.ToR
	var st quantState
	if sec.Sel != nil {
		for _, i := range sec.Sel {
			key := uint64(c.SrcToR[i])<<32 | uint64(c.DstToR[i])
			g.observeNumKeyed(&st, sec.Windows[i], key, float64(c.RTT[i]))
		}
		return
	}
	for i := range sec.Times {
		key := uint64(c.SrcToR[i])<<32 | uint64(c.DstToR[i])
		g.observeNumKeyed(&st, sec.Windows[i], key, float64(c.RTT[i]))
	}
}

// --- GroupAgg ---

// SetAggKernel installs the SoA aggregation loop matching the operator's
// key/value extractors.
func (g *GroupAgg) SetAggKernel(k AggKernel) { g.kernel = k }

// mergeAggCols merges one partial-aggregate section without building
// AggRow records: each live row becomes one mergePartial against a
// stack-allocated row.
func (g *GroupAgg) mergeAggCols(sec *wire.ColSec) {
	c := sec.Agg
	sec.Live(func(i int) {
		row := telemetry.AggRow{
			Key:    telemetry.GroupKey{Num: c.KeyNum[i], Str: c.KeyStr[i]},
			Window: c.Window[i], Count: c.Count[i],
			Sum: c.Sum[i], Min: c.Min[i], Max: c.Max[i],
		}
		g.mergePartial(sec.Windows[i], &row)
	})
}

// observeNumKeyed folds one numeric-keyed observation, resolving the
// window state per run of equal window ids like the row routine.
type numAggState struct {
	win     *aggWindow
	winID   int64
	haveWin bool
}

func (g *GroupAgg) observeNumKeyed(st *numAggState, window int64, key uint64, val float64) {
	if !st.haveWin || window != st.winID {
		st.win = g.window(window)
		st.win.gen = g.gen
		st.winID, st.haveWin = window, true
	}
	if cell := st.win.nums.find(key); cell != nil {
		cell.row.Observe(val)
		cell.gen = g.gen
		return
	}
	st.win.nums.insert(aggCell{row: telemetry.NewAggRow(telemetry.NumKey(key), window, val), gen: g.gen})
}

// aggPingPairRTT aggregates a ping section straight from its columns:
// the packed (srcIP, dstIP) key and the RTT value never pass through a
// Record, a GroupKey hash of the full struct, or an interface call.
func (g *GroupAgg) aggPingPairRTT(sec *wire.ColSec) {
	c := sec.Ping
	var st numAggState
	if sec.Sel != nil {
		for _, i := range sec.Sel {
			key := uint64(c.SrcIP[i])<<32 | uint64(c.DstIP[i])
			g.observeNumKeyed(&st, sec.Windows[i], key, float64(c.RTT[i]))
		}
		return
	}
	for i := range sec.Times {
		key := uint64(c.SrcIP[i])<<32 | uint64(c.DstIP[i])
		g.observeNumKeyed(&st, sec.Windows[i], key, float64(c.RTT[i]))
	}
}

// aggToRPairRTT is aggPingPairRTT for ToR sections.
func (g *GroupAgg) aggToRPairRTT(sec *wire.ColSec) {
	c := sec.ToR
	var st numAggState
	if sec.Sel != nil {
		for _, i := range sec.Sel {
			key := uint64(c.SrcToR[i])<<32 | uint64(c.DstToR[i])
			g.observeNumKeyed(&st, sec.Windows[i], key, float64(c.RTT[i]))
		}
		return
	}
	for i := range sec.Times {
		key := uint64(c.SrcToR[i])<<32 | uint64(c.DstToR[i])
		g.observeNumKeyed(&st, sec.Windows[i], key, float64(c.RTT[i]))
	}
}

// jobRefKey is the columnar lookup key for JobStats groups: the column
// strings plus the bucket, hashed without assembling the
// "tenant|statName|bucket" string the canonical key uses. Stored keys
// hold symbol-table copies (GroupAgg.sym), never the probing row's
// strings.
type jobRefKey struct {
	tenant, stat string
	bucket       int64
}

// maxSyms bounds the symbol table; flooded with unique key parts it
// resets rather than growing without bound (entries still referenced by
// open windows stay alive through those references).
const maxSyms = 1 << 16

// sym returns the operator's own copy of a key part. The tenant and stat
// name columns of a parsed log section slice a per-section arena (and a
// decoded section's may slice whatever its producer chose); a byRef
// entry lives as long as its window, so storing the column's string
// would pin that arena — one ~600 KB buffer per group in the worst case —
// for the window's ten seconds. The table holds one short copy per
// distinct tenant and stat name instead.
func (g *GroupAgg) sym(s string) string {
	if c, ok := g.syms[s]; ok {
		return c
	}
	if g.syms == nil || len(g.syms) >= maxSyms {
		g.syms = make(map[string]string)
	}
	c := strings.Clone(s)
	g.syms[c] = c
	return c
}

// aggJobStatsCount aggregates a JobStats section keyed on interned
// string refs, counting one per row — JobStatsKey/JobStatsOne.
func (g *GroupAgg) aggJobStatsCount(sec *wire.ColSec) {
	g.aggJobStats(sec, false)
}

// aggJobStatsDur is aggJobStatsCount folding the Stat column instead of
// counting — JobStatsKey/JobStatsVal.
func (g *GroupAgg) aggJobStatsDur(sec *wire.ColSec) {
	g.aggJobStats(sec, true)
}

// aggJobStats aggregates a JobStats section keyed on its string columns:
// the canonical string key is assembled only when a group is first seen
// in a window; afterwards rows reach their cell through the per-window
// byRef cache. Everything stored — the assembled key, the byRef entry —
// is the operator's own copy, so no state outlives the epoch pointing
// into a section's strings. useStat selects the folded value: the Stat
// column (durations) or a constant 1 (counts).
func (g *GroupAgg) aggJobStats(sec *wire.ColSec, useStat bool) {
	c := sec.Job
	var win *aggWindow
	winID, haveWin := int64(0), false
	sec.Live(func(i int) {
		w := sec.Windows[i]
		if !haveWin || w != winID {
			win = g.window(w)
			win.gen = g.gen
			winID, haveWin = w, true
		}
		val := 1.0
		if useStat {
			val = c.Stat[i]
		}
		ref := jobRefKey{tenant: c.Tenant[i], stat: c.StatName[i], bucket: c.Bucket[i]}
		cell := win.byRef[ref]
		if cell == nil {
			// First sighting through the columnar path: assemble the
			// canonical key once, find or create the row-path cell, and
			// cache it under the symbol-table copies of the refs.
			key := telemetry.StrKey(ref.tenant + "|" + ref.stat + "|" + itoa(int(ref.bucket)))
			ref.tenant, ref.stat = g.sym(ref.tenant), g.sym(ref.stat)
			if win.byRef == nil {
				win.byRef = make(map[jobRefKey]*aggCell)
			}
			cell = win.lookup(key)
			if cell == nil {
				win.byRef[ref] = win.store(aggCell{row: telemetry.NewAggRow(key, w, val), gen: g.gen})
				return
			}
			win.byRef[ref] = cell
		}
		cell.row.Observe(val)
		cell.gen = g.gen
	})
}
