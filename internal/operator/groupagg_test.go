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
// group key, row key or byRef string may point into any section's arena
// — or one group would pin one ~600 KB buffer for the window's ten
// seconds.
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
	if win == nil || len(win.str) != 64*3*12 || len(win.byRef) != len(win.str) {
		t.Fatalf("window holds %d groups, %d refs, want 2304 of each", len(win.str), len(win.byRef))
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
	for ref := range win.byRef {
		check("byRef tenant", ref.tenant)
		check("byRef stat", ref.stat)
	}
	if len(g.syms) != 64+len(stats) {
		t.Fatalf("symbol table holds %d strings, want one per tenant and stat name (%d)", len(g.syms), 64+len(stats))
	}
}
