package stream

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"jarvis/internal/plan"
	"jarvis/internal/telemetry"
	"jarvis/internal/workload"
)

// runQuantilePartitioned runs S2SQuantileProbe end to end with the given
// source load factors and returns window 0's sketches.
func runQuantilePartitioned(t *testing.T, budget float64, factors []float64, seed uint64) map[telemetry.GroupKey]*telemetry.QuantileRow {
	t.Helper()
	q := plan.S2SQuantileProbe()
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
	sp.RegisterSource(1)
	cfg := workload.DefaultPingConfig(seed)
	cfg.Peers = 500 // denser per-pair sampling keeps the test fast
	gen := workload.NewPingGen(cfg)

	var final telemetry.Batch
	for e := 0; e < 20; e++ {
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
	rows := map[telemetry.GroupKey]*telemetry.QuantileRow{}
	for _, rec := range final {
		row := rec.Data.(*telemetry.QuantileRow)
		if row.Window != 0 {
			continue
		}
		if prev, ok := rows[row.Key]; ok {
			if err := prev.Merge(row); err != nil {
				t.Fatal(err)
			}
		} else {
			rows[row.Key] = row.Clone()
		}
	}
	return rows
}

// TestQuantilePartitionEquivalence extends the lossless-partitioning
// property to the approximate-quantile extension: the merged sketches
// answer exactly the same quantiles wherever the records were processed.
func TestQuantilePartitionEquivalence(t *testing.T) {
	allSP := runQuantilePartitioned(t, 1.0, []float64{0, 0, 0}, 9)
	split := runQuantilePartitioned(t, 1.0, []float64{1, 1, 0.4}, 9)
	if len(allSP) == 0 {
		t.Fatal("no sketches")
	}
	if len(split) != len(allSP) {
		t.Fatalf("groups: %d vs %d", len(split), len(allSP))
	}
	for k, want := range allSP {
		got, ok := split[k]
		if !ok {
			t.Fatalf("missing group %v", k)
		}
		if got.Total != want.Total {
			t.Fatalf("group %v total %d vs %d", k, got.Total, want.Total)
		}
		for _, p := range []float64{0.5, 0.95, 0.99} {
			if got.Quantile(p) != want.Quantile(p) {
				t.Fatalf("group %v q%.2f: %v vs %v", k, p, got.Quantile(p), want.Quantile(p))
			}
		}
	}
}

func TestQuantileQueryPlanEligibility(t *testing.T) {
	q := plan.S2SQuantileProbe()
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	// Approximate quantiles are incrementally updatable: fully eligible.
	if got := plan.EligiblePrefix(q, plan.SourceRules()); got != 3 {
		t.Fatalf("eligible prefix = %d, want 3", got)
	}
	// The exact-quantile variant would be barred by R-1.
	exact := q.Clone()
	exact.Ops[2].IncrementalAgg = false
	if got := plan.EligiblePrefix(exact, plan.SourceRules()); got != 2 {
		t.Fatalf("exact-quantile prefix = %d, want 2", got)
	}
}

// TestPipelineConservationProperty: under random factors and budgets, no
// stage ever loses records: arrivals = processed + drained + pending.
func TestPipelineConservationProperty(t *testing.T) {
	f := func(seed uint64, budgetPct, f0, f1, f2 uint8) bool {
		budget := float64(budgetPct%101) / 100
		factors := []float64{
			float64(f0%101) / 100, float64(f1%101) / 100, float64(f2%101) / 100,
		}
		p, err := NewPipeline(plan.S2SProbe(), DefaultOptions(budget, 0))
		if err != nil {
			return false
		}
		_ = p.SetLoadFactors(factors)
		cfg := workload.DefaultPingConfig(seed)
		cfg.Peers = 200
		gen := workload.NewPingGen(cfg)
		in := make([]int, 3)
		processed := make([]int, 3)
		drained := make([]int, 3)
		for e := 0; e < 4; e++ {
			res := p.RunEpoch(gen.Next(4000))
			for i, s := range res.Stats {
				in[i] += s.In
				processed[i] += s.Processed
				drained[i] += s.Drained
			}
		}
		for i := 0; i < 3; i++ {
			if processed[i]+drained[i]+pendingAt(p, i) != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineBudgetNeverExceeded: token accounting holds for arbitrary
// factors — the pipeline never spends more than its budget.
func TestPipelineBudgetNeverExceeded(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 10; trial++ {
		budget := rng.Float64()
		p, err := NewPipeline(plan.S2SProbe(), DefaultOptions(budget, 0))
		if err != nil {
			t.Fatal(err)
		}
		_ = p.SetLoadFactors([]float64{rng.Float64(), rng.Float64(), rng.Float64()})
		gen := workload.NewPingGen(workload.DefaultPingConfig(uint64(trial)))
		for e := 0; e < 3; e++ {
			res := p.RunEpoch(gen.NextWindow(1_000_000))
			if res.BudgetUsedFrac > 1.0+1e-9 {
				t.Fatalf("budget exceeded: %v (budget %v)", res.BudgetUsedFrac, budget)
			}
			if math.IsNaN(res.BudgetUsedFrac) {
				t.Fatal("NaN budget accounting")
			}
		}
	}
}
