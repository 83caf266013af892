package operator

import (
	"strings"
	"unsafe"

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
	// through a per-window index keyed on symbol ids of the strings.
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
	cell, slot := st.win.nums.find(key)
	if cell != nil {
		cell.row.Observe(val)
		cell.gen = g.gen
		return
	}
	st.win.nums.insert(slot, aggCell{row: telemetry.NewAggRow(telemetry.NumKey(key), window, val), gen: g.gen})
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

// maxSyms bounds the symbol table; flooded with unique key parts it
// resets rather than growing without bound (dropSyms).
const maxSyms = 1 << 16

// symFront is a direct-mapped cache in front of syms, keyed on a
// string's (data address, length) and valid for one section (gen): the
// section keeps its strings alive, so within it the same address and
// length are the same bytes. Held as a number, an address pins nothing.
// A decoded section's key columns repeat the decoder's canonical copies
// and nearly always hit; a parsed section's slice their own lines.
type symFront struct {
	slots [1 << symFrontBits]struct {
		p       uintptr
		n       int
		gen, id uint32
	}
	gen uint32
}

const symFrontBits = 10

// nextSection starts a section: every cached address goes stale.
func (f *symFront) nextSection() {
	if f.gen++; f.gen == 0 { // wrapped: no old slot may look current
		*f = symFront{gen: 1}
	}
}

// symID returns the id of a JobStats key part, numbering it on first
// sighting under a copy of its bytes: a parsed section's Tenant and
// StatName columns slice a per-section arena, and syms outlives the
// section, so storing the column's string would pin that arena.
func (g *GroupAgg) symID(s string) uint32 {
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	slot := &g.front.slots[uint64(p)*0x9E3779B97F4A7C15>>(64-symFrontBits)]
	if slot.p != p || slot.n != len(s) || slot.gen != g.front.gen {
		id, ok := g.syms[s]
		if !ok {
			id = uint32(len(g.syms))
			g.syms[strings.Clone(s)] = id
		}
		slot.p, slot.n, slot.gen, slot.id = p, len(s), g.front.gen, id
	}
	return slot.id
}

// dropSyms empties the symbol table, and with it every open window's id
// index and the section cache, whose ids are about to be reused. The
// indexes are caches: a group's next row finds its cell again through
// the canonical string key.
func (g *GroupAgg) dropSyms() {
	g.syms = make(map[string]uint32)
	for _, win := range g.state {
		clear(win.jobs.slots)
		win.jobs.n = 0
	}
	g.front.nextSection()
}

// jobIndex finds a window's JobStats cells of str by (tenant id<<32 |
// stat id, bucket): an open-addressed index shaped like numTable's. An
// empty slot has no cell; n counts the filled ones.
type jobIndex struct {
	slots []jobSlot
	shift uint8
	n     int
}

type jobSlot struct {
	ids    uint64
	bucket int64
	cell   *aggCell
}

// slot returns (ids, bucket)'s slot, or the empty slot the caller files
// it in, doubling the index first if that would load it past 3/4.
func (x *jobIndex) slot(ids uint64, bucket int64) *jobSlot {
	if 4*(x.n+1) > 3*len(x.slots) {
		old := x.slots
		size, shift := indexSize(len(old))
		x.slots, x.shift = make([]jobSlot, size), shift
		for _, s := range old {
			if s.cell != nil {
				*x.slot(s.ids, s.bucket) = s
			}
		}
	}
	mask := uint64(len(x.slots) - 1)
	for i := (ids ^ uint64(bucket)<<16) * 0x9e3779b97f4a7c15 >> x.shift; ; i = (i + 1) & mask {
		if s := &x.slots[i]; s.cell == nil || s.ids == ids && s.bucket == bucket {
			return s
		}
	}
}

// aggJobStats aggregates a JobStats section keyed on its string columns:
// a row's tenant and stat name become symbol ids (symID) and the ids and
// bucket find its cell through the window's jobs index. Only on an index
// miss is the canonical string key assembled, to find or create the
// row-path cell. Nothing stored points into the section's strings.
// useStat selects the folded value: the Stat column (durations,
// JobStatsVal) or a constant 1 (counts, JobStatsOne).
func (g *GroupAgg) aggJobStats(sec *wire.ColSec, useStat bool) {
	c := sec.Job
	if g.front == nil {
		g.front, g.syms = new(symFront), make(map[string]uint32)
	}
	g.front.nextSection()
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
		ids := uint64(g.symID(c.Tenant[i]))<<32 | uint64(g.symID(c.StatName[i]))
		s := win.jobs.slot(ids, c.Bucket[i])
		if s.cell != nil {
			s.cell.row.Observe(val)
			s.cell.gen = g.gen
			return
		}
		key := telemetry.StrKey(c.Tenant[i] + "|" + c.StatName[i] + "|" + itoa(int(c.Bucket[i])))
		cell := win.lookup(key)
		if cell == nil {
			cell = win.store(aggCell{row: telemetry.NewAggRow(key, w, val), gen: g.gen})
		} else {
			cell.row.Observe(val)
			cell.gen = g.gen
		}
		*s = jobSlot{ids: ids, bucket: c.Bucket[i], cell: cell}
		win.jobs.n++
		// A new id never hits an index, so every insert into syms passes
		// here; the ids of this row are filed before the reset drops them.
		if len(g.syms) >= maxSyms {
			g.dropSyms()
		}
	})
}
