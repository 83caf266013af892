package stream

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"jarvis/internal/operator"
	"jarvis/internal/plan"
	"jarvis/internal/telemetry"
	"jarvis/internal/workload"
)

// The execution-parity suite compares the engine against one test-only
// reference: a record-at-a-time, depth-first evaluator with the
// pipeline's routing but no budget or queue logic. With budget to spare
// the pipeline's one wave loop must reproduce its epochs exactly,
// whether a trace arrives as rows (RunEpoch) or as SoA sections
// (RunEpochColumnar) — see TestColumnarAgentEpochParity. Mid-epoch
// budget exhaustion is where a stage-major schedule legitimately departs
// from the depth-first reference; there the row and SoA forms must still
// agree with each other and stay lossless (TestMixedWaveTightBudget,
// TestPipelineLosslessAccounting, TestLosslessUnderPressure).

// oracle is the record-at-a-time reference evaluator.
type oracle struct {
	ops     []operator.Operator
	proxies []*Proxy
	drains  []telemetry.Batch
	results telemetry.Batch

	maxEventSeen, watermark int64
}

// oracleEpoch is what the oracle reports for one epoch, in the shape of
// the EpochResult fields it can vouch for.
type oracleEpoch struct {
	Stats     []ProxyStats
	Drains    []telemetry.Batch
	Results   telemetry.Batch
	Watermark int64
}

func newOracle(t *testing.T, q *plan.Query) *oracle {
	t.Helper()
	ops, err := q.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	o := &oracle{ops: ops, proxies: make([]*Proxy, len(ops))}
	for i := range o.proxies {
		o.proxies[i] = NewProxy(i)
	}
	return o
}

func (o *oracle) setLoadFactors(lf []float64) {
	for i, f := range lf {
		o.proxies[i].SetLoadFactor(f)
	}
}

// feed routes one record at stage i and, when forwarded, processes it
// alone and follows each emission down the chain before returning.
func (o *oracle) feed(i int, rec telemetry.Record) {
	if i >= len(o.ops) {
		o.results = append(o.results, rec)
		return
	}
	px := o.proxies[i]
	if !px.Route(rec) {
		o.drains[i] = append(o.drains[i], rec)
		return
	}
	px.NoteProcessedN(1)
	var out telemetry.Batch
	operator.ProcessRows(o.ops[i], telemetry.Batch{rec}, &out)
	for _, r := range out {
		o.feed(i+1, r)
	}
}

func (o *oracle) observeTime(t int64) {
	if t > o.maxEventSeen {
		o.maxEventSeen = t
	}
}

func (o *oracle) runEpoch(input telemetry.Batch) oracleEpoch {
	o.drains = make([]telemetry.Batch, len(o.ops))
	o.results = nil
	for _, rec := range input {
		o.observeTime(rec.Time)
		o.feed(0, rec)
	}
	if o.maxEventSeen > o.watermark {
		o.watermark = o.maxEventSeen
	}
	for i, op := range o.ops {
		if op.Stateful() {
			op.Flush(o.watermark, func(r telemetry.Record) { o.feed(i+1, r) })
		}
	}
	ep := oracleEpoch{Drains: o.drains, Results: o.results, Watermark: o.watermark}
	for _, px := range o.proxies {
		ep.Stats = append(ep.Stats, px.EndEpoch(0, 0, 0, 0))
	}
	return ep
}

// matchesOracle compares a pipeline epoch (already in row form) with the
// oracle's. Proxy states depend on the budget the oracle does not model,
// so they are left out.
func matchesOracle(o oracleEpoch, res EpochResult) error {
	for i := range o.Stats {
		want, got := o.Stats[i], res.Stats[i]
		want.State, got.State = 0, 0
		if want != got {
			return fmt.Errorf("stats[%d]: oracle %+v vs pipeline %+v", i, want, got)
		}
	}
	for i := range o.Drains {
		if err := batchesEqual(o.Drains[i], res.Drains[i]); err != nil {
			return fmt.Errorf("drains[%d]: %w", i, err)
		}
	}
	if err := batchesEqual(o.Results, res.Results); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	if o.Watermark != res.Watermark {
		return fmt.Errorf("watermark %d vs %d", o.Watermark, res.Watermark)
	}
	return nil
}

// parityTable builds an IP→ToR table covering the ping generator's
// source and a subset of its peers, so T2TProbe's joins both hit and
// miss.
func parityTable(cfg workload.PingConfig) *telemetry.ToRTable {
	ips := []uint32{cfg.SrcIP}
	for i := 0; i < 2000; i++ {
		ips = append(ips, 0x0B000000+uint32(i))
	}
	return telemetry.NewToRTable(ips, 40)
}

// parityFactors varies the load factors across epochs so routing
// exercises forward, drain and mixed regimes.
func parityFactors(nops, epoch int) []float64 {
	out := make([]float64, nops)
	for i := range out {
		switch epoch % 3 {
		case 0:
			out[i] = 1
		case 1:
			out[i] = 1 - 0.2*float64(i)
		default:
			out[i] = 0.5
		}
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

func batchesEqual(a, b telemetry.Batch) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return fmt.Errorf("record %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return nil
}

func epochsEqual(a, b EpochResult) error {
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		return fmt.Errorf("stats differ:\n %+v\n %+v", a.Stats, b.Stats)
	}
	if len(a.Drains) != len(b.Drains) {
		return fmt.Errorf("drain stages %d vs %d", len(a.Drains), len(b.Drains))
	}
	for i := range a.Drains {
		if err := batchesEqual(a.Drains[i], b.Drains[i]); err != nil {
			return fmt.Errorf("drains[%d]: %w", i, err)
		}
	}
	if err := batchesEqual(a.Results, b.Results); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	if a.ResultStage != b.ResultStage {
		return fmt.Errorf("result stage %d vs %d", a.ResultStage, b.ResultStage)
	}
	if a.Watermark != b.Watermark {
		return fmt.Errorf("watermark %d vs %d", a.Watermark, b.Watermark)
	}
	if a.DrainedBytes != b.DrainedBytes || a.ResultBytes != b.ResultBytes {
		return fmt.Errorf("bytes (%d,%d) vs (%d,%d)",
			a.DrainedBytes, a.ResultBytes, b.DrainedBytes, b.ResultBytes)
	}
	if math.Abs(a.BudgetUsedFrac-b.BudgetUsedFrac) > 1e-9 {
		return fmt.Errorf("budget used %v vs %v", a.BudgetUsedFrac, b.BudgetUsedFrac)
	}
	return nil
}

// TestLosslessUnderPressure checks the conservation property where the
// wave schedule departs from the oracle: tight budget, full forwarding.
// Every arrival at stage 0 is processed, queued or drained — none lost.
func TestLosslessUnderPressure(t *testing.T) {
	p := s2sPipeline(t, 0.3)
	_ = p.SetLoadFactors(onesForS2S())
	gen := workload.NewPingGen(workload.DefaultPingConfig(21))
	totalIn := 0
	var processed, drained int
	for i := 0; i < 6; i++ {
		batch := gen.NextWindow(1_000_000)
		totalIn += len(batch)
		res := p.RunEpoch(batch)
		processed += res.Stats[0].Processed
		drained += res.Stats[0].Drained
	}
	if processed+drained+pendingAt(p, 0) != totalIn {
		t.Fatalf("lost records: in=%d processed=%d drained=%d pending=%d",
			totalIn, processed, drained, pendingAt(p, 0))
	}
	if QueryState(lastStats(p)) != StateCongested && p.PendingTotal() == 0 {
		t.Fatal("30% budget at p=1 should backlog somewhere")
	}
}

func lastStats(p *Pipeline) []ProxyStats {
	res := p.RunEpoch(nil)
	return res.Stats
}
