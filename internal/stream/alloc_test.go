package stream

import (
	"runtime"
	"testing"

	"jarvis/internal/plan"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
)

// Allocation regression guards for the batch-vectorized engine, run the
// way every caller runs an epoch: the pipeline owns its output buffers
// (one batch per stage's drains and one for the results, row-form records
// leading as one Rows section) until its next epoch, and nobody hands
// them back. Once its scratch is warm, a steady-state epoch must not
// allocate per record. The legacy record path allocated an emit closure
// per record per stage (~3 allocs/record, >100k per epoch at the paper's
// 10× rate); these bounds would fail loudly on any regression back
// toward that.

func TestSteadyStateEpochAllocs(t *testing.T) {
	p := s2sPipeline(t, 1.5)
	if err := p.SetLoadFactors([]float64{1, 0.9, 0.8}); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(17))
	batch := gen.NextWindow(1_000_000)
	// Warm up: grow scratch buffers, output buffers and group state.
	for i := 0; i < 3; i++ {
		p.RunEpoch(batch)
	}
	avg := testing.AllocsPerRun(50, func() { p.RunEpoch(batch) })
	// The epoch re-feeds the same window, so group state is stable; the
	// only tolerated allocations are small per-epoch headers (the stats
	// slice) — nothing proportional to the ~38k input records.
	if avg > 32 {
		t.Fatalf("steady-state epoch allocates %.1f times (want ≤ 32)", avg)
	}
}

func TestWarmAgentPipelineAllocs(t *testing.T) {
	p := s2sPipeline(t, 1.5)
	if err := p.SetLoadFactors([]float64{1, 0.9, 0.8}); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(17))
	var cb wire.ColumnarBatch
	gen.NextWindowCols(1_000_000, &cb)
	// Re-feeding the same columns is safe: the pipeline never writes
	// through shared column arrays (mutation discipline in wire.ColSec).
	for i := 0; i < 3; i++ {
		p.RunEpochColumnar(&cb)
	}
	avg := testing.AllocsPerRun(50, func() { p.RunEpochColumnar(&cb) })
	// Same budget as the row epoch: per-epoch headers only, nothing
	// proportional to the ~38k input records — the SoA wave reuses the
	// pipeline's section buffers and selection-vector freelist.
	if avg > 32 {
		t.Fatalf("steady-state columnar agent epoch allocates %.1f times (want ≤ 32)", avg)
	}
}

func TestSteadyStateSPIngestAllocs(t *testing.T) {
	e, err := NewSPEngine(plan.S2SProbe())
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(18))
	batch := gen.NextWindow(1_000_000)
	for i := 0; i < 3; i++ {
		if err := e.Ingest(0, batch); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		if err := e.Ingest(0, batch); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 8 {
		t.Fatalf("steady-state SP ingest allocates %.1f times (want ≤ 8)", avg)
	}
}

// TestRecycledEpochBuffersAreReused checks that the pipeline recycles its
// own output buffers: the next epoch drains into the same backing array
// as the one before, with nothing handed back by the caller.
func TestRecycledEpochBuffersAreReused(t *testing.T) {
	p := s2sPipeline(t, 1.5)
	if err := p.SetLoadFactors([]float64{0.5, 0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(19))
	window := gen.NextWindow(1_000_000)
	drainRows := func(res EpochResult) telemetry.Batch {
		d := res.Drains[0]
		if len(d.Secs) == 0 || d.Secs[0].Rows == nil {
			t.Fatal("expected row drains at 50% load factor")
		}
		return d.Secs[0].Rows
	}
	first := drainRows(p.RunEpoch(window))
	base, capacity := &first[:1][0], cap(first)
	second := drainRows(p.RunEpoch(window))
	if len(second) > capacity {
		t.Fatalf("second epoch drained %d rows, more than the first epoch's buffer holds (%d)", len(second), capacity)
	}
	if &second[:1][0] != base {
		t.Fatal("second epoch must drain into the first epoch's buffer")
	}
}

// TestWarmEpochAllocBytes bounds what a warm epoch allocates in bytes,
// on row input and on SoA input: the drain and result buffers, row-form
// ones included, are the pipeline's own and are reused by its next epoch,
// so nothing the size of the ~19k drained rows may be allocated again.
func TestWarmEpochAllocBytes(t *testing.T) {
	gen := workload.NewPingGen(workload.DefaultPingConfig(17))
	batch := gen.NextWindow(1_000_000)
	var cb wire.ColumnarBatch
	gen.NextWindowCols(1_000_000, &cb)
	for _, tc := range []struct {
		name string
		run  func(p *Pipeline)
	}{
		{"rows", func(p *Pipeline) { p.RunEpoch(batch) }},
		{"soa", func(p *Pipeline) { p.RunEpochColumnar(&cb) }},
	} {
		p := s2sPipeline(t, 1.5)
		if err := p.SetLoadFactors([]float64{1, 0.9, 0.8}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			tc.run(p)
		}
		if b := allocBytesPerRun(20, func() { tc.run(p) }); b > 4<<10 {
			t.Errorf("%s: warm epoch allocates %.0f bytes (want ≤ 4 KiB)", tc.name, b)
		}
	}
}

// allocBytesPerRun is testing.AllocsPerRun for bytes: the average heap
// bytes one call of f allocates, measured on one P.
func allocBytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
