package stream

import (
	"math"
	"testing"

	"jarvis/internal/plan"
	"jarvis/internal/telemetry"
	"jarvis/internal/workload"
)

func s2sPipeline(t *testing.T, budget float64) *Pipeline {
	t.Helper()
	p, err := NewPipeline(plan.S2SProbe(), DefaultOptions(budget, 0))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func onesForS2S() []float64 { return []float64{1, 1, 1} }

func TestCostModelCalibration(t *testing.T) {
	q := plan.S2SProbe()
	cm, err := NewCostModel(q)
	if err != nil {
		t.Fatal(err)
	}
	// F: 13% of a core at 38081 rec/s → ≈3.41 µs per record.
	refRPS := workload.RecordsPerSec(q.RefRateMbps, q.RecordBytes)
	wantF := 0.13 * 1e6 / refRPS
	if math.Abs(cm.Cost(1)-wantF) > 1e-9 {
		t.Fatalf("F cost = %v, want %v", cm.Cost(1), wantF)
	}
	// Whole pipeline at the reference rate uses ≈85% of a core.
	p := s2sPipeline(t, 1.0)
	if d := p.DemandFraction(refRPS); math.Abs(d-0.85) > 0.01 {
		t.Fatalf("demand = %v, want ≈0.85", d)
	}
}

func TestCostModelErrors(t *testing.T) {
	q := plan.S2SProbe()
	q.RefRateMbps = 0
	if _, err := NewCostModel(q); err == nil {
		t.Fatal("missing calibration must error")
	}
}

func TestCostModelScaleOp(t *testing.T) {
	cm, err := NewCostModel(plan.S2SProbe())
	if err != nil {
		t.Fatal(err)
	}
	base := cm.Cost(2)
	cm.ScaleOp(2, 2)
	if cm.Cost(2) != base*2 {
		t.Fatal("scale failed")
	}
	cm.ScaleOp(2, -1) // ignored
	if cm.Cost(2) != base*2 {
		t.Fatal("negative factor must be ignored")
	}
}

func TestDemandPctScalesWithRate(t *testing.T) {
	q := plan.S2SProbe()
	full := DemandPct(q, q.RefRateMbps)
	half := DemandPct(q, q.RefRateMbps/2)
	if math.Abs(full-2*half) > 1e-9 {
		t.Fatalf("demand not linear in rate: %v vs %v", full, half)
	}
}

// feedEpochs drives the pipeline with one-second epochs of generated
// Pingmesh data and returns the per-epoch results. Each epoch reuses the
// pipeline's output buffers, so only the scalar fields of an earlier
// result stay meaningful.
func feedEpochs(p *Pipeline, gen *workload.PingGen, epochs int) []EpochResult {
	out := make([]EpochResult, 0, epochs)
	for i := 0; i < epochs; i++ {
		batch := gen.NextWindow(1_000_000)
		out = append(out, p.RunEpoch(batch))
	}
	return out
}

func TestPipelineAllLocalAmpleBudget(t *testing.T) {
	p := s2sPipeline(t, 1.0)
	if err := p.SetLoadFactors(onesForS2S()); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(1))
	results := feedEpochs(p, gen, 11) // 11 s: closes the first 10 s window

	var drained int
	for _, r := range results {
		for _, s := range r.Stats {
			drained += s.Drained
		}
	}
	if drained != 0 {
		t.Fatalf("ample budget should drain nothing, drained %d", drained)
	}
	var flushed *EpochResult
	for i := range results {
		if results[i].ResultBytes > 0 {
			flushed = &results[i]
			break
		}
	}
	if flushed == nil {
		t.Fatal("window should have flushed aggregate rows")
	}
	if flushed.ResultStage != 2 {
		t.Fatalf("stateful last op must target stage 2, got %d", flushed.ResultStage)
	}
	if p.PendingTotal() != 0 {
		t.Fatalf("pending = %d", p.PendingTotal())
	}
	// Budget use ≈ 85%.
	if u := flushed.BudgetUsedFrac; u < 0.7 || u > 0.95 {
		t.Fatalf("budget used = %v, want ≈0.85", u)
	}
}

func TestPipelineZeroLoadFactorsDrainEverything(t *testing.T) {
	p := s2sPipeline(t, 1.0) // Startup: load factors are zero by default
	gen := workload.NewPingGen(workload.DefaultPingConfig(2))
	res := p.RunEpoch(gen.NextWindow(1_000_000))
	if res.Drains[0].Records() == 0 {
		t.Fatal("everything should drain at stage 0")
	}
	if res.Stats[0].Forwarded != 0 || res.Stats[0].Drained != res.Stats[0].In {
		t.Fatalf("stats = %+v", res.Stats[0])
	}
	if res.BudgetUsedFrac > 0.01 {
		t.Fatalf("draining must be nearly free, used %v", res.BudgetUsedFrac)
	}
}

func TestPipelineLosslessAccounting(t *testing.T) {
	p := s2sPipeline(t, 0.4)
	_ = p.SetLoadFactors([]float64{1, 1, 0.5})
	gen := workload.NewPingGen(workload.DefaultPingConfig(3))
	totalIn := 0
	var processed, drained int
	for i := 0; i < 5; i++ {
		batch := gen.NextWindow(1_000_000)
		totalIn += len(batch)
		res := p.RunEpoch(batch)
		processed += res.Stats[0].Processed
		drained += res.Stats[0].Drained
	}
	// Stage-0 conservation: arrivals = processed + drained + pending.
	if processed+drained+pendingAt(p, 0) != totalIn {
		t.Fatalf("lost records: in=%d processed=%d drained=%d pending=%d",
			totalIn, processed, drained, pendingAt(p, 0))
	}
}

func pendingAt(p *Pipeline, stage int) int { return len(p.queues[stage]) }

func TestPipelineCongestionUnderTightBudget(t *testing.T) {
	p := s2sPipeline(t, 0.3) // demand ≈85%, budget 30%
	_ = p.SetLoadFactors(onesForS2S())
	gen := workload.NewPingGen(workload.DefaultPingConfig(4))
	var congested bool
	for i := 0; i < 4; i++ {
		res := p.RunEpoch(gen.NextWindow(1_000_000))
		if QueryState(res.Stats) == StateCongested {
			congested = true
		}
	}
	if !congested {
		t.Fatal("30% budget with p=1 must congest")
	}
	if p.PendingTotal() == 0 {
		t.Fatal("backlog expected")
	}
}

func TestPipelineIdleDetection(t *testing.T) {
	p := s2sPipeline(t, 1.0)
	// Low load factors with a huge budget: proxies should report idle.
	_ = p.SetLoadFactors([]float64{0.2, 0.2, 0.2})
	gen := workload.NewPingGen(workload.DefaultPingConfig(5))
	res := p.RunEpoch(gen.NextWindow(1_000_000))
	if QueryState(res.Stats) != StateIdle {
		t.Fatalf("state = %v, want idle (spare=%v)", QueryState(res.Stats), res.SpareBudgetFrac)
	}
}

func TestPipelineBoundaryForcesDrain(t *testing.T) {
	q := plan.S2SProbe()
	p, err := NewPipeline(q, DefaultOptions(1.0, 2)) // W, F only
	if err != nil {
		t.Fatal(err)
	}
	if p.Boundary() != 2 {
		t.Fatal("boundary")
	}
	// Even explicit ones are clamped to zero past the boundary.
	_ = p.SetLoadFactors([]float64{1, 1, 1})
	if lf := p.LoadFactors(); lf[2] != 0 {
		t.Fatalf("boundary proxy lf = %v", lf[2])
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(6))
	res := p.RunEpoch(gen.NextWindow(1_000_000))
	// F's output crosses the boundary via the results path, entering the
	// SP at stage 2 (the replica of the first remote operator).
	if res.Results.Records() == 0 {
		t.Fatal("records must cross the boundary toward the SP")
	}
	if res.ResultStage != 2 {
		// Last local op (F) is stateless → results enter SP at stage 2.
		t.Fatalf("result stage = %d, want 2", res.ResultStage)
	}
	for _, r := range rowsOf(res.Results) {
		if _, ok := r.Data.(*telemetry.PingProbe); !ok {
			t.Fatalf("boundary output should be raw probes, got %T", r.Data)
		}
	}
}

func TestPipelineSetBudgetMidRun(t *testing.T) {
	p := s2sPipeline(t, 0.1)
	_ = p.SetLoadFactors(onesForS2S())
	gen := workload.NewPingGen(workload.DefaultPingConfig(7))
	p.RunEpoch(gen.NextWindow(1_000_000))
	backlog := p.PendingTotal()
	if backlog == 0 {
		t.Fatal("expected backlog at 10% budget")
	}
	p.SetBudget(1.0)
	if p.Budget() != 1.0 {
		t.Fatal("budget setter")
	}
	for i := 0; i < 3; i++ {
		p.RunEpoch(gen.NextWindow(1_000_000))
	}
	if p.PendingTotal() >= backlog {
		t.Fatalf("backlog should shrink after budget increase: %d → %d",
			backlog, p.PendingTotal())
	}
}

func TestPipelineValidation(t *testing.T) {
	if _, err := NewPipeline(plan.NewQuery("bad"), DefaultOptions(1, 0)); err == nil {
		t.Fatal("invalid query must fail")
	}
	opts := DefaultOptions(1, 0)
	opts.EpochMicros = 0
	if _, err := NewPipeline(plan.S2SProbe(), opts); err == nil {
		t.Fatal("zero epoch must fail")
	}
	p := s2sPipeline(t, 1)
	if err := p.SetLoadFactors([]float64{1}); err == nil {
		t.Fatal("wrong load-factor count must fail")
	}
}

func TestPipelineQueueOverflowDrains(t *testing.T) {
	q := plan.S2SProbe()
	opts := DefaultOptions(0.0, 0) // zero budget: everything forwarded must queue
	opts.MaxQueuePerStage = 10
	p, err := NewPipeline(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	_ = p.SetLoadFactors(onesForS2S())
	gen := workload.NewPingGen(workload.DefaultPingConfig(8))
	res := p.RunEpoch(gen.Next(100))
	if got := pendingAt(p, 0); got != 10 {
		t.Fatalf("queue should cap at 10, got %d", got)
	}
	if n := res.Drains[0].Records(); n != 90 {
		t.Fatalf("overflow should drain: %d", n)
	}
}

func TestDrainStateHandsPartialsToSP(t *testing.T) {
	q := plan.S2SProbe()
	p, err := NewPipeline(q, DefaultOptions(1.0, 0))
	if err != nil {
		t.Fatal(err)
	}
	_ = p.SetLoadFactors([]float64{1, 1, 1})
	gen := workload.NewPingGen(workload.DefaultPingConfig(9))
	p.RunEpoch(gen.NextWindow(1_000_000))

	state := p.DrainState()
	rows, ok := state[2]
	if !ok || len(rows) == 0 {
		t.Fatalf("no partial state drained: %v", state)
	}
	// Drained state folds into an SP replica and flushes correctly.
	sp, err := NewSPEngine(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Ingest(2, rows); err != nil {
		t.Fatal(err)
	}
	sp.ObserveWatermark(1, 10_000_000)
	if out := sp.Advance(); len(out) == 0 {
		t.Fatal("restored state did not flush")
	}
	// State is gone after draining.
	if again := p.DrainState(); len(again) != 0 {
		t.Fatal("drain must clear state")
	}
}

func TestPipelineAccessors(t *testing.T) {
	q := plan.S2SProbe()
	p, err := NewPipeline(q, DefaultOptions(0.5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if p.Query().Name != "S2SProbe" {
		t.Fatal("Query accessor")
	}
	if len(p.Operators()) != 3 {
		t.Fatal("Operators accessor")
	}
	if p.CostModel().Cost(1) <= 0 {
		t.Fatal("CostModel accessor")
	}
	if got := OperatorNames(p.Operators()); len(got) != 3 || got[1] != "errFilter" {
		t.Fatalf("OperatorNames = %v", got)
	}
	if p.Watermark() != 0 {
		t.Fatal("initial watermark")
	}
	res := p.RunEpoch(nil)
	if res.TotalOutBytes() != 0 {
		t.Fatal("empty epoch should ship nothing")
	}
	if DemandPct(&plan.Query{}, 26.2) != 0 {
		t.Fatal("DemandPct without calibration should be 0")
	}
}

func TestPipelineEmitPastBoundaryWithFlatMap(t *testing.T) {
	// A boundary in the middle of LogAnalytics: the parse map's outputs
	// cross toward the SP through the results path; the deeper stages'
	// proxies never see data.
	q := plan.LogAnalytics()
	p, err := NewPipeline(q, DefaultOptions(1.0, 4)) // W, normalize, filter, parse
	if err != nil {
		t.Fatal(err)
	}
	_ = p.SetLoadFactors([]float64{1, 1, 1, 1, 1, 1})
	gen := workload.NewLogGen(workload.DefaultLogConfig(2))
	res := p.RunEpoch(gen.NextWindow(200_000))
	if res.Results.Records() == 0 {
		t.Fatal("parse output should cross the boundary")
	}
	if res.ResultStage != 4 {
		t.Fatalf("result stage = %d, want 4", res.ResultStage)
	}
	if res.Stats[4].In != 0 || res.Stats[5].In != 0 {
		t.Fatal("stages past the boundary must see no arrivals")
	}
}
