package stream

import (
	"sort"
	"testing"

	"jarvis/internal/plan"
	"jarvis/internal/telemetry"
	"jarvis/internal/workload"
)

// runPartitioned executes the S2SProbe query with the given source-side
// load factors, shipping drains and results to an SP replica, and returns
// the final aggregate rows for the first window.
func runPartitioned(t *testing.T, budget float64, factors []float64, seed uint64) map[telemetry.GroupKey]telemetry.AggRow {
	t.Helper()
	q := plan.S2SProbe()
	src, err := NewPipeline(q, DefaultOptions(budget, 0))
	if err != nil {
		t.Fatal(err)
	}
	if factors != nil {
		if err := src.SetLoadFactors(factors); err != nil {
			t.Fatal(err)
		}
	}
	sp, err := NewSPEngine(q)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(seed))
	var final telemetry.Batch
	// 10 s of data plus trailing idle epochs so even a backlogged source
	// (tight budget, high load factors) finishes processing and closes
	// the first window.
	for e := 0; e < 45; e++ {
		var batch telemetry.Batch
		if e < 10 {
			batch = gen.NextWindow(1_000_000)
		} else {
			src.ObserveTime(int64(e+1) * 1_000_000)
		}
		res := src.RunEpoch(batch)
		if err := ingestEpoch(sp, res); err != nil {
			t.Fatal(err)
		}
		sp.ObserveWatermark(1, res.Watermark)
		final = append(final, sp.Advance()...)
	}
	rows := make(map[telemetry.GroupKey]telemetry.AggRow)
	for _, r := range final {
		row := r.Data.(*telemetry.AggRow)
		if row.Window != 0 {
			continue // compare only the fully closed first window
		}
		if prev, ok := rows[row.Key]; ok {
			prev.Merge(*row)
			rows[row.Key] = prev
		} else {
			rows[row.Key] = *row
		}
	}
	return rows
}

// TestPartitionEquivalence is the engine's core correctness property:
// the final query answer is identical whether records are processed
// entirely on the SP (All-SP), entirely on the source (All-Src), or split
// at any load factor — data-level partitioning is lossless (§ III-B).
func TestPartitionEquivalence(t *testing.T) {
	const seed = 42
	allSP := runPartitioned(t, 1.0, []float64{0, 0, 0}, seed)
	allSrc := runPartitioned(t, 1.0, []float64{1, 1, 1}, seed)
	split := runPartitioned(t, 1.0, []float64{1, 1, 0.5}, seed)
	headSplit := runPartitioned(t, 1.0, []float64{0.7, 1, 0.9}, seed)

	if len(allSP) == 0 {
		t.Fatal("no rows from All-SP run")
	}
	for name, got := range map[string]map[telemetry.GroupKey]telemetry.AggRow{
		"All-Src": allSrc, "split": split, "headSplit": headSplit,
	} {
		if len(got) != len(allSP) {
			t.Fatalf("%s: %d rows, want %d", name, len(got), len(allSP))
		}
		for key, want := range allSP {
			g, ok := got[key]
			if !ok {
				t.Fatalf("%s: missing group %v", name, key)
			}
			if g.Count != want.Count || g.Min != want.Min || g.Max != want.Max ||
				absF(g.Sum-want.Sum) > 1e-6 {
				t.Fatalf("%s: group %v = %+v, want %+v", name, key, g, want)
			}
		}
	}
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestPartitionEquivalenceUnderTightBudget(t *testing.T) {
	// Even when the source congests and carries backlog across epochs,
	// no record is lost: the late-closed window matches All-SP.
	const seed = 7
	allSP := runPartitioned(t, 1.0, []float64{0, 0, 0}, seed)
	tight := runPartitioned(t, 0.5, []float64{1, 1, 0.8}, seed)
	if len(tight) != len(allSP) {
		t.Fatalf("tight run rows = %d, want %d", len(tight), len(allSP))
	}
	for key, want := range allSP {
		g := tight[key]
		if g.Count != want.Count {
			t.Fatalf("group %v count = %d, want %d", key, g.Count, want.Count)
		}
	}
}

func TestSPEngineWatermarkMerge(t *testing.T) {
	sp, err := NewSPEngine(plan.S2SProbe())
	if err != nil {
		t.Fatal(err)
	}
	sp.ObserveWatermark(1, 100)
	sp.ObserveWatermark(2, 50)
	if wm := sp.EffectiveWatermark(); wm != 50 {
		t.Fatalf("effective wm = %d, want min 50", wm)
	}
	// Watermarks never regress.
	sp.ObserveWatermark(2, 40)
	if wm := sp.EffectiveWatermark(); wm != 50 {
		t.Fatalf("wm regressed to %d", wm)
	}
	sp.ObserveWatermark(2, 200)
	if wm := sp.EffectiveWatermark(); wm != 100 {
		t.Fatalf("wm = %d, want 100", wm)
	}
	if got := sp.Sources(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("sources = %v", got)
	}
}

func TestSPEngineTwoSourcesMerge(t *testing.T) {
	q := plan.S2SProbe()
	sp, err := NewSPEngine(q)
	if err != nil {
		t.Fatal(err)
	}
	sp.RegisterSource(1)
	sp.RegisterSource(2)
	// Two sources drain raw probes for the same window.
	mk := func(src uint32, rtt uint32) telemetry.Batch {
		return telemetry.Batch{telemetry.NewProbeRecord(&telemetry.PingProbe{
			Timestamp: 1_000_000, SrcIP: 1, DstIP: 2, RTTMicros: rtt,
		})}
	}
	if err := sp.Ingest(0, mk(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := sp.Ingest(0, mk(2, 300)); err != nil {
		t.Fatal(err)
	}
	sp.ObserveWatermark(1, 10_000_000)
	// Only source 1 has advanced: window must stay open.
	if out := sp.Advance(); len(out) != 0 {
		t.Fatalf("premature flush: %d rows", len(out))
	}
	sp.ObserveWatermark(2, 10_000_000)
	out := sp.Advance()
	if len(out) != 1 {
		t.Fatalf("rows = %d", len(out))
	}
	row := out[0].Data.(*telemetry.AggRow)
	if row.Count != 2 || row.Min != 100 || row.Max != 300 {
		t.Fatalf("merged row = %+v", row)
	}
	if sp.IngressRecords() != 2 || sp.IngressBytes() != 2*telemetry.PingProbeWireSize {
		t.Fatalf("ingress accounting: %d records, %d bytes",
			sp.IngressRecords(), sp.IngressBytes())
	}
	if sp.CPUMicros() <= 0 {
		t.Fatal("CPU accounting missing")
	}
}

func TestSPEngineIngestErrors(t *testing.T) {
	sp, err := NewSPEngine(plan.S2SProbe())
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Ingest(-1, nil); err == nil {
		t.Fatal("negative stage must error")
	}
	if err := sp.Ingest(99, nil); err == nil {
		t.Fatal("stage beyond pipeline must error")
	}
	// Stage == len(ops) is the passthrough sink.
	rec := telemetry.NewAggRecord(telemetry.NewAggRow(telemetry.NumKey(1), 0, 1), 1)
	if err := sp.Ingest(3, telemetry.Batch{rec}); err != nil {
		t.Fatal(err)
	}
	out := sp.Advance()
	if len(out) != 1 {
		t.Fatalf("passthrough rows = %d", len(out))
	}
}

func TestSPEngineReset(t *testing.T) {
	sp, err := NewSPEngine(plan.S2SProbe())
	if err != nil {
		t.Fatal(err)
	}
	_ = sp.Ingest(0, telemetry.Batch{telemetry.NewProbeRecord(&telemetry.PingProbe{Timestamp: 1})})
	sp.ObserveWatermark(1, 5)
	sp.Reset()
	if sp.IngressRecords() != 0 || sp.CPUMicros() != 0 || len(sp.Sources()) != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestRowsSortedDeterministically(t *testing.T) {
	// Two identical runs produce identical row orderings.
	a := runPartitioned(t, 1.0, []float64{1, 1, 1}, 11)
	b := runPartitioned(t, 1.0, []float64{1, 1, 1}, 11)
	ka := keysOf(a)
	kb := keysOf(b)
	if len(ka) != len(kb) {
		t.Fatal("row sets differ")
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatal("ordering not deterministic")
		}
	}
}

func keysOf(m map[telemetry.GroupKey]telemetry.AggRow) []telemetry.GroupKey {
	out := make([]telemetry.GroupKey, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Num < out[j].Num })
	return out
}
