package core

import (
	"testing"

	"jarvis/internal/plan"
	"jarvis/internal/runtime"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/workload"
)

func TestNewSourceValidation(t *testing.T) {
	if _, err := NewSource(plan.NewQuery("bad"), SourceOptions{BudgetFrac: 1}); err == nil {
		t.Fatal("invalid query must fail")
	}
	q := plan.S2SProbe()
	q.Ops[0].CrossSourceState = true // nothing source-eligible
	if _, err := NewSource(q, SourceOptions{BudgetFrac: 1}); err == nil {
		t.Fatal("fully ineligible query must fail")
	}
}

func TestSourceAdaptsFromStartup(t *testing.T) {
	src, gen, err := NewPingmeshSource(1, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if src.Boundary() != 3 {
		t.Fatalf("boundary = %d", src.Boundary())
	}
	// Startup: zeros; after several epochs the runtime must have raised
	// the factors to use the 80% budget.
	for e := 0; e < 12; e++ {
		if _, err := src.RunEpoch(gen.NextWindow(1_000_000)); err != nil {
			t.Fatal(err)
		}
	}
	lf := src.LoadFactors()
	if lf[0] == 0 && lf[1] == 0 && lf[2] == 0 {
		t.Fatalf("runtime never adapted: %v", lf)
	}
	res := src.LastResult()
	if res.BudgetUsedFrac < 0.5 {
		t.Fatalf("budget badly underused after adaptation: %v", res.BudgetUsedFrac)
	}
	if src.Epochs() != 12 {
		t.Fatalf("epochs = %d", src.Epochs())
	}
	if src.Phase() != runtime.PhaseProbe && src.Phase() != runtime.PhaseAdapt {
		t.Fatalf("phase = %v", src.Phase())
	}
}

func TestSourceBudgetChangeReadapts(t *testing.T) {
	src, gen, err := NewPingmeshSource(2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 12; e++ {
		_, _ = src.RunEpoch(gen.NextWindow(1_000_000))
	}
	highUse := src.LastResult().BudgetUsedFrac * src.Budget()
	src.SetBudget(0.4)
	if src.Budget() != 0.4 {
		t.Fatal("budget setter")
	}
	for e := 0; e < 25; e++ {
		_, _ = src.RunEpoch(gen.NextWindow(1_000_000))
	}
	lowUse := src.LastResult().BudgetUsedFrac * src.Budget()
	if lowUse > 0.45 {
		t.Fatalf("demand did not shrink with the budget: %v → %v", highUse, lowUse)
	}
}

func TestSourceNoAdaptKeepsFactors(t *testing.T) {
	src, err := NewSource(plan.S2SProbe(), SourceOptions{
		BudgetFrac: 1, RateMbps: workload.PingmeshMbps10x, Adapt: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 0}
	_ = src.SetLoadFactors(want)
	gen := workload.NewPingGen(workload.DefaultPingConfig(3))
	for e := 0; e < 5; e++ {
		_, _ = src.RunEpoch(gen.NextWindow(1_000_000))
	}
	got := src.LoadFactors()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("factors drifted: %v", got)
		}
	}
}

func TestBuildingBlockEndToEnd(t *testing.T) {
	bb, err := NewBuildingBlock(plan.S2SProbe(), 2, SourceOptions{
		BudgetFrac: 1, RateMbps: workload.PingmeshMbps10x, Adapt: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	gens := []*workload.PingGen{
		workload.NewPingGen(pingCfg(11, 0x0A000001)),
		workload.NewPingGen(pingCfg(12, 0x0A000002)),
	}
	var rows telemetry.Batch
	for e := 0; e < 14; e++ {
		batches := make([]telemetry.Batch, 2)
		for i, g := range gens {
			if e < 10 {
				batches[i] = g.NextWindow(1_000_000)
			} else {
				bb.Sources[i].ObserveTime(int64(e+1) * 1_000_000)
			}
		}
		out, err := bb.RunEpoch(batches)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, out...)
	}
	if len(rows) == 0 {
		t.Fatal("no merged results")
	}
	// Group keys from both sources must appear.
	srcSeen := map[uint32]bool{}
	for _, r := range rows {
		row := r.Data.(*telemetry.AggRow)
		srcSeen[uint32(row.Key.Num>>32)] = true
	}
	if len(srcSeen) < 2 {
		t.Fatalf("results from %d sources, want 2", len(srcSeen))
	}
	if bb.Proc.IngressBytes() == 0 {
		t.Fatal("no ingress accounting")
	}
}

func pingCfg(seed uint64, src uint32) workload.PingConfig {
	cfg := workload.DefaultPingConfig(seed)
	cfg.SrcIP = src
	return cfg
}

// The headline correctness property at the public-API level: adaptation
// never changes query answers, only where records are processed.
func TestAdaptiveResultsMatchAllSP(t *testing.T) {
	run := func(adapt bool, budget float64) map[telemetry.GroupKey]int64 {
		bb, err := NewBuildingBlock(plan.S2SProbe(), 1, SourceOptions{
			BudgetFrac: budget, RateMbps: workload.PingmeshMbps10x, Adapt: adapt,
		})
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.NewPingGen(pingCfg(42, 0x0A000009))
		counts := map[telemetry.GroupKey]int64{}
		for e := 0; e < 40; e++ {
			var batch telemetry.Batch
			if e < 10 {
				batch = gen.NextWindow(1_000_000)
			} else {
				bb.Sources[0].ObserveTime(int64(e+1) * 1_000_000)
			}
			out, err := bb.RunEpoch([]telemetry.Batch{batch})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range out {
				row := r.Data.(*telemetry.AggRow)
				if row.Window == 0 {
					counts[row.Key] += row.Count
				}
			}
		}
		return counts
	}
	reference := run(false, 1.0) // factors zero: everything on the SP
	adaptive := run(true, 0.6)   // constrained adaptive source
	if len(reference) == 0 {
		t.Fatal("no reference rows")
	}
	if len(adaptive) != len(reference) {
		t.Fatalf("group counts differ: %d vs %d", len(adaptive), len(reference))
	}
	for k, want := range reference {
		if adaptive[k] != want {
			t.Fatalf("group %v: %d vs %d", k, adaptive[k], want)
		}
	}
}

func TestProcessorConsumeErrors(t *testing.T) {
	proc, err := NewProcessor(plan.S2SProbe())
	if err != nil {
		t.Fatal(err)
	}
	bad := stream.EpochResult{
		Results:     rowsBatch(telemetry.Batch{telemetry.NewProbeRecord(&telemetry.PingProbe{})}),
		ResultStage: 99,
	}
	if err := proc.Consume(1, bad); err == nil {
		t.Fatal("invalid result stage must error")
	}
}
