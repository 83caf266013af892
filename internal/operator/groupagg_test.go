package operator

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
)

const winDur = 10_000_000 // 10 s in microseconds

func probeRec(ts int64, src, dst, rtt uint32) telemetry.Record {
	r := telemetry.NewProbeRecord(&telemetry.PingProbe{
		Timestamp: ts, SrcIP: src, DstIP: dst, RTTMicros: rtt,
	})
	r.Window = ts / winDur
	return r
}

func TestGroupAggBasic(t *testing.T) {
	g := NewGroupAgg("g", winDur, ProbePairKey, ProbeRTT)
	var out telemetry.Batch
	process(g, probeRec(1_000_000, 1, 2, 100), collect(&out))
	process(g, probeRec(2_000_000, 1, 2, 300), collect(&out))
	process(g, probeRec(3_000_000, 1, 3, 50), collect(&out))
	if len(out) != 0 {
		t.Fatal("nothing should emit before flush")
	}
	if g.GroupCount(0) != 2 {
		t.Fatalf("group count = %d", g.GroupCount(0))
	}

	// Watermark before window end: still nothing.
	g.Flush(5_000_000, collect(&out))
	if len(out) != 0 {
		t.Fatal("window should stay open")
	}

	g.Flush(winDur, collect(&out))
	if len(out) != 2 {
		t.Fatalf("flushed %d rows, want 2", len(out))
	}
	row := out[0].Data.(*telemetry.AggRow)
	if row.Count != 2 || row.Min != 100 || row.Max != 300 || row.Avg() != 200 {
		t.Fatalf("row = %+v", row)
	}
	if out[0].Time != winDur {
		t.Fatalf("emitted record time = %d, want window end", out[0].Time)
	}
	if g.GroupCount(0) != 0 {
		t.Fatal("window state should be cleared")
	}
}

func TestGroupAggMultiWindow(t *testing.T) {
	g := NewGroupAgg("g", winDur, ProbePairKey, ProbeRTT)
	var out telemetry.Batch
	process(g, probeRec(1_000_000, 1, 2, 10), collect(&out))
	process(g, probeRec(11_000_000, 1, 2, 20), collect(&out))
	process(g, probeRec(21_000_000, 1, 2, 30), collect(&out))
	if got := g.OpenWindows(); len(got) != 3 {
		t.Fatalf("open windows = %v", got)
	}
	g.Flush(2*winDur, collect(&out)) // closes windows 0 and 1
	if len(out) != 2 {
		t.Fatalf("flushed %d rows", len(out))
	}
	if got := g.OpenWindows(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("open windows after flush = %v", got)
	}
}

func TestGroupAggMergePartials(t *testing.T) {
	// Simulate SP-side G+R receiving a partial AggRow drained from the
	// source plus raw records for the same group.
	g := NewGroupAgg("g", winDur, ProbePairKey, ProbeRTT)
	var out telemetry.Batch

	partial := telemetry.NewAggRow(telemetry.NumKey((1<<32)|2), 0, 500)
	partial.Observe(700)
	process(g, telemetry.NewAggRecord(partial, winDur), collect(&out))
	process(g, probeRec(1_000_000, 1, 2, 300), collect(&out))

	g.Flush(winDur, collect(&out))
	if len(out) != 1 {
		t.Fatalf("flushed %d rows", len(out))
	}
	row := out[0].Data.(*telemetry.AggRow)
	if row.Count != 3 || row.Min != 300 || row.Max != 700 {
		t.Fatalf("merged row = %+v", row)
	}
}

func TestGroupAggMergePartialNewGroup(t *testing.T) {
	g := NewGroupAgg("g", winDur, ProbePairKey, ProbeRTT)
	var out telemetry.Batch
	partial := telemetry.NewAggRow(telemetry.NumKey(42), 1, 9)
	process(g, telemetry.NewAggRecord(partial, 2*winDur), collect(&out))
	g.Flush(2*winDur, collect(&out))
	if len(out) != 1 || out[0].Data.(*telemetry.AggRow).Count != 1 {
		t.Fatalf("out = %+v", out)
	}
}

func TestGroupAggDrain(t *testing.T) {
	g := NewGroupAgg("g", winDur, ProbePairKey, ProbeRTT)
	var out telemetry.Batch
	process(g, probeRec(1_000_000, 1, 2, 10), collect(&out))
	process(g, probeRec(11_000_000, 1, 2, 20), collect(&out))
	g.Drain(collect(&out))
	if len(out) != 2 {
		t.Fatalf("drained %d rows", len(out))
	}
	if len(g.OpenWindows()) != 0 {
		t.Fatal("drain must clear state")
	}
	// Drained partials fold back losslessly.
	g2 := NewGroupAgg("g2", winDur, ProbePairKey, ProbeRTT)
	for _, r := range out {
		process(g2, r, collect(&telemetry.Batch{}))
	}
	var final telemetry.Batch
	g2.Flush(3*winDur, collect(&final))
	if len(final) != 2 {
		t.Fatalf("refolded %d rows", len(final))
	}
}

func TestGroupAggReset(t *testing.T) {
	g := NewGroupAgg("g", winDur, ProbePairKey, ProbeRTT)
	process(g, probeRec(1, 1, 2, 10), func(telemetry.Record) {})
	g.Reset()
	if len(g.OpenWindows()) != 0 {
		t.Fatal("reset must clear state")
	}
	if g.Kind() != KindGroupAgg || !g.Stateful() {
		t.Fatal("metadata wrong")
	}
}

func TestGroupAggPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGroupAgg("g", 0, ProbePairKey, ProbeRTT)
}

// Property: splitting a stream between two replicas (source + SP) and
// merging partials yields exactly the same rows as one replica seeing
// everything — the paper's lossless data-level partitioning invariant.
func TestGroupAggPartitionLossless(t *testing.T) {
	f := func(seed uint64, splitPct uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		n := 50 + rng.IntN(200)
		records := make(telemetry.Batch, n)
		for i := range records {
			records[i] = probeRec(
				int64(rng.IntN(3*winDur)),
				uint32(rng.IntN(4)), uint32(rng.IntN(4)),
				uint32(rng.IntN(10000)))
		}
		p := float64(splitPct%101) / 100

		// Reference: single replica.
		ref := NewGroupAgg("ref", winDur, ProbePairKey, ProbeRTT)
		for _, r := range records {
			process(ref, r, func(telemetry.Record) {})
		}
		var want telemetry.Batch
		ref.Flush(4*winDur, collect(&want))

		// Partitioned: src processes share p, drains the rest raw; src
		// partials drain to SP at epoch end.
		src := NewGroupAgg("src", winDur, ProbePairKey, ProbeRTT)
		sp := NewGroupAgg("sp", winDur, ProbePairKey, ProbeRTT)
		none := func(telemetry.Record) {}
		for _, r := range records {
			if rng.Float64() < p {
				process(src, r, none)
			} else {
				process(sp, r, none)
			}
		}
		src.Drain(func(r telemetry.Record) { process(sp, r, none) })
		var got telemetry.Batch
		sp.Flush(4*winDur, collect(&got))

		if len(got) != len(want) {
			return false
		}
		for i := range want {
			a := want[i].Data.(*telemetry.AggRow)
			b := got[i].Data.(*telemetry.AggRow)
			if a.Key != b.Key || a.Count != b.Count || a.Min != b.Min ||
				a.Max != b.Max || abs(a.Sum-b.Sum) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestLogStatsKeyAndCount(t *testing.T) {
	g := NewGroupAgg("g", winDur, JobStatsKey, JobStatsOne)
	var out telemetry.Batch
	mk := func(tenant string, bucket int) telemetry.Record {
		return telemetry.Record{
			Time:   1_000_000,
			Window: 0,
			Data:   &telemetry.JobStats{Tenant: tenant, StatName: "cpu util", Bucket: bucket},
		}
	}
	process(g, mk("a", 3), collect(&out))
	process(g, mk("a", 3), collect(&out))
	process(g, mk("b", 3), collect(&out))
	g.Flush(winDur, collect(&out))
	if len(out) != 2 {
		t.Fatalf("rows = %d", len(out))
	}
	for _, r := range out {
		row := r.Data.(*telemetry.AggRow)
		switch row.Key.Str {
		case "a|cpu util|3":
			if row.Count != 2 {
				t.Fatalf("a count = %d", row.Count)
			}
		case "b|cpu util|3":
			if row.Count != 1 {
				t.Fatalf("b count = %d", row.Count)
			}
		default:
			t.Fatalf("unexpected key %q", row.Key.Str)
		}
	}
}

func TestToRKeyExtractors(t *testing.T) {
	rec := telemetry.Record{Data: &telemetry.ToRProbe{SrcToR: 1, DstToR: 2, RTTMicros: 77}}
	if ToRPairKey(rec).Num != (1<<32)|2 {
		t.Fatal("ToRPairKey wrong")
	}
	if ToRRTT(rec) != 77 {
		t.Fatal("ToRRTT wrong")
	}
}

func BenchmarkGroupAggProcess(b *testing.B) {
	g := NewGroupAgg("g", winDur, ProbePairKey, ProbeRTT)
	recs := make(telemetry.Batch, 1024)
	for i := range recs {
		recs[i] = probeRec(int64(i)*1000, uint32(i%64), uint32(i%128), uint32(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		process(g, recs[i%len(recs)], func(telemetry.Record) {})
	}
}

// TestGroupAggStateDoesNotPinSectionStrings is the retention guard of the
// string-column rule: a parsed log section's Tenant and StatName columns
// slice a per-section arena that dies with the epoch, while GroupAgg
// state lives for the window. After a LogAnalytics-sized window (64
// tenants × 3 stats × 12 buckets = 2 304 groups, spread over many
// sections) is ingested through the SoA kernel and a GC is forced, no
// group key, row key or symbol-table string may point into any section's
// arena — or one group would pin one ~600 KB buffer for the window's ten
// seconds. The window's id index holds ids, not strings: it must file
// every group once.
func TestGroupAggStateDoesNotPinSectionStrings(t *testing.T) {
	g := NewGroupAgg("histogram", 10_000_000, JobStatsKey, JobStatsOne)
	g.SetAggKernel(AggKernelJobStatsCount)
	stats := []string{"job running time", "cpu util", "memory util"}
	type span struct{ lo, hi uintptr }
	var arenas []span
	for s := 0; s < 24; s++ {
		// One section's arena: the normalized lines back to back.
		var arena strings.Builder
		type field struct{ tenant, stat [2]int }
		var fields []field
		for l := 0; l < 96; l++ {
			arena.WriteString("tenant name=")
			t0 := arena.Len()
			fmt.Fprintf(&arena, "tenant-%03d", (s*96+l)%64)
			t1 := arena.Len()
			for _, st := range stats {
				arena.WriteString(", ")
				s0 := arena.Len()
				arena.WriteString(st)
				fields = append(fields, field{tenant: [2]int{t0, t1}, stat: [2]int{s0, arena.Len()}})
				arena.WriteString("=1")
			}
			arena.WriteString("\n")
		}
		a := arena.String()
		lo := uintptr(unsafe.Pointer(unsafe.StringData(a)))
		arenas = append(arenas, span{lo, lo + uintptr(len(a))})
		sec := wire.ColSec{Tag: wire.TagJobStats, Job: &wire.JobCols{}}
		for i, f := range fields {
			sec.Times = append(sec.Times, int64(i))
			sec.Windows = append(sec.Windows, 0)
			sec.Job.TS = append(sec.Job.TS, int64(i))
			sec.Job.Tenant = append(sec.Job.Tenant, a[f.tenant[0]:f.tenant[1]])
			sec.Job.StatName = append(sec.Job.StatName, a[f.stat[0]:f.stat[1]])
			sec.Job.Stat = append(sec.Job.Stat, 1)
			sec.Job.Bucket = append(sec.Job.Bucket, int64((s+i)%12))
		}
		g.ProcessColumnar(&wire.ColumnarBatch{Secs: []wire.ColSec{sec}})
	}
	runtime.GC()

	win := g.state[0]
	if win == nil || len(win.str) != 64*3*12 || win.jobs.n != len(win.str) {
		t.Fatalf("window holds %d groups, %d indexed, want 2304 of each", len(win.str), win.jobs.n)
	}
	check := func(what, s string) {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		for i, a := range arenas {
			if p >= a.lo && p < a.hi {
				t.Fatalf("%s %q points into section %d's arena", what, s, i)
			}
		}
	}
	for k, cell := range win.str {
		check("group key", k.Str)
		check("row key", cell.row.Key.Str)
	}
	for s := range g.syms {
		check("symbol", s)
	}
	if len(g.syms) != 64+len(stats) {
		t.Fatalf("symbol table holds %d strings, want one per tenant and stat name (%d)", len(g.syms), 64+len(stats))
	}
}

// jobRow is one JobStats row of a kernel test: its window, tenant, stat
// name, value and bucket.
type jobRow struct {
	win          int64
	tenant, stat string
	val          float64
	bucket       int64
}

// jobSection builds a JobStats section over rows, using their strings as
// they are: the caller decides which rows share a string's bytes.
func jobSection(rows []jobRow) wire.ColSec {
	sec := wire.ColSec{Tag: wire.TagJobStats, Job: &wire.JobCols{}}
	for i, r := range rows {
		sec.Times = append(sec.Times, int64(i))
		sec.Windows = append(sec.Windows, r.win)
		sec.Job.TS = append(sec.Job.TS, int64(i))
		sec.Job.Tenant = append(sec.Job.Tenant, r.tenant)
		sec.Job.StatName = append(sec.Job.StatName, r.stat)
		sec.Job.Stat = append(sec.Job.Stat, r.val)
		sec.Job.Bucket = append(sec.Job.Bucket, r.bucket)
	}
	return sec
}

// jobKernelHarness feeds the same JobStats rows to one GroupAgg per
// kernel and to a row-path reference per kernel (observeRows with
// JobStatsKey), which it gives copies of every string as fed: a section
// fed through section may be rewritten in place afterwards.
type jobKernelHarness struct {
	kernels, refs [2]*GroupAgg
}

func newJobKernelHarness() *jobKernelHarness {
	h := &jobKernelHarness{}
	for i, k := range []AggKernel{AggKernelJobStatsCount, AggKernelJobStatsDur} {
		val := JobStatsOne
		if k == AggKernelJobStatsDur {
			val = JobStatsVal
		}
		h.kernels[i] = NewGroupAgg("kernel", winDur, JobStatsKey, val)
		h.kernels[i].SetAggKernel(k)
		h.refs[i] = NewGroupAgg("rows", winDur, JobStatsKey, val)
	}
	return h
}

func (h *jobKernelHarness) section(rows []jobRow) {
	var recs telemetry.Batch
	for _, r := range rows {
		recs = append(recs, telemetry.Record{Window: r.win, Data: &telemetry.JobStats{
			Tenant: strings.Clone(r.tenant), StatName: strings.Clone(r.stat),
			Stat: r.val, Bucket: int(r.bucket),
		}})
	}
	for i := range h.kernels {
		h.kernels[i].ProcessColumnar(&wire.ColumnarBatch{Secs: []wire.ColSec{jobSection(rows)}})
		h.refs[i].observeRows(recs)
	}
}

// check flushes every operator and fails unless each kernel emitted what
// its row-path reference did, no (window, key) twice, want rows in all.
func (h *jobKernelHarness) check(t *testing.T, want int) {
	t.Helper()
	for i := range h.kernels {
		var got, ref telemetry.Batch
		h.kernels[i].Flush(1<<62, collect(&got))
		h.refs[i].Flush(1<<62, collect(&ref))
		if len(got) != want || len(ref) != want {
			t.Fatalf("kernel %d: %d rows, row path %d, want %d", i, len(got), len(ref), want)
		}
		seen := make(map[[2]any]bool)
		for j := range got {
			a, b := got[j].Data.(*telemetry.AggRow), ref[j].Data.(*telemetry.AggRow)
			if *a != *b {
				t.Fatalf("kernel %d row %d: %+v, row path %+v", i, j, *a, *b)
			}
			if k := [2]any{a.Window, a.Key}; seen[k] {
				t.Fatalf("kernel %d: window %d key %q emitted twice", i, a.Window, a.Key.Str)
			} else {
				seen[k] = true
			}
		}
	}
}

// TestJobStatsSymbolCacheSound holds the section cache to its one
// assumption — same address and length mean same bytes within a section,
// not across sections. One buffer is rewritten between two sections so
// that different names of equal length sit at the same address: they must
// stay different groups. Within a section, equal names at different
// addresses must meet in one group.
func TestJobStatsSymbolCacheSound(t *testing.T) {
	h := newJobKernelHarness()
	buf := make([]byte, 8)
	at := func(off int) string { return unsafe.String(&buf[off], 4) }
	for sec, names := range []string{"acmeload", "zorbcpu%"} {
		copy(buf, names)
		tenant, stat := at(0), at(4)
		h.section([]jobRow{
			{0, tenant, stat, 3, 1},
			{0, tenant, stat, 5, 1},
			{0, strings.Clone(tenant), strings.Clone(stat), 7, 1},
			{0, tenant, strings.Clone(stat), 11, 2},
			{1, strings.Clone(tenant), stat, float64(13 + sec), 1},
		})
	}
	// Two tenants × (bucket 1, bucket 2) in window 0, and one group each
	// in window 1.
	h.check(t, 6)
}

// TestJobStatsSymbolTableOverflow floods the symbol table past maxSyms
// with distinct tenants across two open windows. The reset drops every
// window's id index while groups first seen before it are observed again
// after it, and ids are handed out anew: each group must still fold into
// its one cell, as on the row path.
func TestJobStatsSymbolTableOverflow(t *testing.T) {
	const tenants = maxSyms + maxSyms/4
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("t%06d", i)
	}
	h := newJobKernelHarness()
	// Sections are not aligned to maxSyms, so the reset falls early in
	// one, with the low tenants already in the section cache.
	const perSec = 5000
	for lo := 0; lo < tenants; lo += perSec {
		var rows []jobRow
		for i := lo; i < min(lo+perSec, tenants); i++ {
			rows = append(rows, jobRow{int64(i % 2), names[i], "op", float64(i % 7), int64(i % 3)})
			// Revisit a group from four sections back (across the
			// reset for the sections after it), and a low tenant
			// whose id the reset hands to another name.
			if old := i - 4*perSec; old >= 0 {
				rows = append(rows, jobRow{int64(old % 2), names[old], "op", 1, int64(old % 3)})
			}
			j := i % 64
			rows = append(rows, jobRow{int64(j % 2), names[j], "op", 2, int64(j % 3)})
		}
		h.section(rows)
	}
	if n := len(h.kernels[0].syms); n >= maxSyms || n == 0 {
		t.Fatalf("symbol table holds %d names after the flood, want a reset below %d", n, maxSyms)
	}
	h.check(t, tenants)
}
