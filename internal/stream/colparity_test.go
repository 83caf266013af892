package stream

import (
	"bytes"
	"math"
	"testing"

	"jarvis/internal/plan"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
)

// These tests pin the wave loop's guarantee: RunEpochColumnar over
// generator-emitted columns produces the same epoch (stats, drains,
// results, watermark, byte and budget accounting) as RunEpoch over the
// row form of the same trace, both reproduce the record-at-a-time oracle
// (parity_test.go), and SP replicas fed by each — SoA sections through
// IngestColumnar, row batches through Ingest, the oracle's records one
// at a time — emit identical output, on all of the paper's queries,
// under routing that exercises forward, drain and mixed regimes.

// colParityCase pairs a query with row and columnar generators backed by
// identically seeded instances (NextWindowCols is trace-identical to
// NextWindow by construction).
type colParityCase struct {
	name   string
	query  func() *plan.Query
	gen    func() func() telemetry.Batch
	colGen func() func(cb *wire.ColumnarBatch)
}

func colParityCases() []colParityCase {
	pingCfg := workload.DefaultPingConfig(7)
	pingGens := func() (func() telemetry.Batch, func(cb *wire.ColumnarBatch)) {
		g := workload.NewPingGen(workload.DefaultPingConfig(7))
		return func() telemetry.Batch { return g.NextWindow(1_000_000) },
			func(cb *wire.ColumnarBatch) { g.NextWindowCols(1_000_000, cb) }
	}
	cases := []colParityCase{
		{name: "S2SProbe", query: plan.S2SProbe},
		{name: "T2TProbe", query: func() *plan.Query { return plan.T2TProbe(parityTable(pingCfg)) }},
		{name: "S2SQuantile", query: plan.S2SQuantileProbe},
		{
			name:  "TraceSpanAgg",
			query: plan.TraceSpanAgg,
			gen: func() func() telemetry.Batch {
				g := workload.NewSpanGen(workload.DefaultSpanConfig(7))
				return func() telemetry.Batch { return g.NextWindow(1_000_000) }
			},
			colGen: func() func(cb *wire.ColumnarBatch) {
				g := workload.NewSpanGen(workload.DefaultSpanConfig(7))
				return func(cb *wire.ColumnarBatch) { g.NextWindowCols(1_000_000, cb) }
			},
		},
		{
			name:  "LogAnalytics",
			query: plan.LogAnalytics,
			gen: func() func() telemetry.Batch {
				g := workload.NewLogGen(workload.DefaultLogConfig(7))
				return func() telemetry.Batch { return g.NextWindow(1_000_000) }
			},
			colGen: func() func(cb *wire.ColumnarBatch) {
				g := workload.NewLogGen(workload.DefaultLogConfig(7))
				return func(cb *wire.ColumnarBatch) { g.NextWindowCols(1_000_000, cb) }
			},
		},
	}
	for i := range cases {
		if cases[i].gen == nil {
			cases[i].gen = func() func() telemetry.Batch { r, _ := pingGens(); return r }
			cases[i].colGen = func() func(cb *wire.ColumnarBatch) { _, c := pingGens(); return c }
		}
	}
	return cases
}

// ingestEpoch feeds an epoch's drains and results to an SP replica, one
// batch per non-empty stage, the way the receiver applies the shipper's
// frames.
func ingestEpoch(sp *SPEngine, res EpochResult) error {
	for stage := range res.Drains {
		if len(res.Drains[stage].Secs) > 0 {
			if err := sp.IngestColumnar(stage, &res.Drains[stage]); err != nil {
				return err
			}
		}
	}
	if len(res.Results.Secs) > 0 {
		return sp.IngestColumnar(res.ResultStage, &res.Results)
	}
	return nil
}

func TestColumnarAgentEpochParity(t *testing.T) {
	for _, tc := range colParityCases() {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.query()
			rowPipe, err := NewPipeline(tc.query(), DefaultOptions(4.0, 0))
			if err != nil {
				t.Fatal(err)
			}
			colPipe, err := NewPipeline(tc.query(), DefaultOptions(4.0, 0))
			if err != nil {
				t.Fatal(err)
			}
			newSP := func() *SPEngine {
				e, err := NewSPEngine(tc.query())
				if err != nil {
					t.Fatal(err)
				}
				e.RegisterSource(1)
				return e
			}
			rowSP, colSP, oracleSP := newSP(), newSP(), newSP()
			ref := newOracle(t, tc.query())

			gen, colGen := tc.gen(), tc.colGen()
			nops := len(q.Ops)
			var cb wire.ColumnarBatch
			sawOutput, sawColDrain := false, false
			for epoch := 0; epoch < 13; epoch++ {
				lf := parityFactors(nops, epoch)
				if tc.name == "T2TProbe" {
					// The dstToR join's row-path input is an intermediate
					// payload with no columnar layout (the SoA path fuses both
					// lookups into the first join), so drains at that stage
					// would legitimately differ in form. Routing everything
					// forward there keeps the comparison meaningful — and
					// matches real deployments, where the intermediate has no
					// wire encoding either.
					lf[3] = 1
				}
				if err := rowPipe.SetLoadFactors(lf); err != nil {
					t.Fatal(err)
				}
				if err := colPipe.SetLoadFactors(lf); err != nil {
					t.Fatal(err)
				}
				ref.setLoadFactors(lf)
				cb.Reset()
				var input telemetry.Batch
				if epoch < 11 {
					input = gen()
					colGen(&cb)
				} else {
					rowPipe.ObserveTime(int64(epoch+1) * 1_000_000)
					colPipe.ObserveTime(int64(epoch+1) * 1_000_000)
					ref.observeTime(int64(epoch+1) * 1_000_000)
				}
				ores := ref.runEpoch(input)
				rres := rowPipe.RunEpoch(input)
				cres := colPipe.RunEpochColumnar(&cb)
				if err := matchesOracle(ores, rres); err != nil {
					t.Fatalf("epoch %d: rows vs oracle: %v", epoch, err)
				}
				if err := epochsEqual(rres, cres); err != nil {
					t.Fatalf("epoch %d: %v", epoch, err)
				}

				// SP replicas: the oracle's records enter one at a time; the
				// row and columnar epochs feed their batches through
				// IngestColumnar like the receiver would.
				feedOne := func(stage int, recs telemetry.Batch) {
					for i := range recs {
						if err := oracleSP.Ingest(stage, recs[i:i+1]); err != nil {
							t.Fatal(err)
						}
					}
				}
				for stage, d := range ores.Drains {
					feedOne(stage, d)
				}
				feedOne(rres.ResultStage, ores.Results)
				oracleSP.ObserveWatermark(1, ores.Watermark)

				for stage := range cres.Drains {
					sawColDrain = sawColDrain || hasSoA(cres.Drains[stage])
				}
				if err := ingestEpoch(rowSP, rres); err != nil {
					t.Fatal(err)
				}
				rowSP.ObserveWatermark(1, rres.Watermark)
				if err := ingestEpoch(colSP, cres); err != nil {
					t.Fatal(err)
				}
				colSP.ObserveWatermark(1, cres.Watermark)

				oout, rout, cout := oracleSP.Advance(), rowSP.Advance(), colSP.Advance()
				if err := batchesEqual(oout, rout); err != nil {
					t.Fatalf("epoch %d SP output, oracle vs rows: %v", epoch, err)
				}
				if err := batchesEqual(rout, cout); err != nil {
					t.Fatalf("epoch %d SP output: %v", epoch, err)
				}
				if len(rout) > 0 {
					sawOutput = true
				}
			}
			if !sawOutput {
				t.Fatal("parity run never flushed results — the test is vacuous")
			}
			if !sawColDrain {
				t.Fatal("columnar path never drained SoA sections — the test is vacuous")
			}
			if rowPipe.PendingTotal() != colPipe.PendingTotal() {
				t.Fatalf("pending %d vs %d", rowPipe.PendingTotal(), colPipe.PendingTotal())
			}
		})
	}
}

// soaOf returns the rows as decoded SoA sections (a wire v2 round trip).
func soaOf(t *testing.T, rows telemetry.Batch) []wire.ColSec {
	t.Helper()
	var buf bytes.Buffer
	fw := wire.NewFrameWriter(&buf)
	if err := fw.WriteFrame(wire.Frame{Records: rows}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := wire.NewFrameReader(&buf)
	f, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Cols == nil || f.Cols.Records() != len(rows) {
		t.Fatalf("SoA round trip lost records")
	}
	return f.Cols.Secs
}

// TestMixedWaveTightBudget covers what the oracle cannot: a budget that
// runs out mid-epoch and a stage queue that overflows. One pipeline gets
// each epoch as rows, the other as a wave whose first half is a Rows
// section and whose second half is SoA; spill into the queues, carry-over
// order and forced drains must leave both with identical epochs and
// identical SP output, and once the backlog has drained the output must
// be the unpartitioned fold of the input — every (window, key) row
// exactly once.
func TestMixedWaveTightBudget(t *testing.T) {
	cases := []struct {
		name  string
		query func() *plan.Query
		gen   func() func() telemetry.Batch
		lf    []float64
	}{
		{
			name: "S2SProbe", query: plan.S2SProbe, lf: []float64{0.9, 0.8, 1},
			gen: func() func() telemetry.Batch {
				g := workload.NewPingGen(workload.DefaultPingConfig(11))
				return func() telemetry.Batch { return g.NextWindow(1_000_000) }
			},
		},
		{
			name: "LogAnalytics", query: plan.LogAnalytics, lf: []float64{1, 0.9, 1, 0.8, 0.9, 1},
			gen: func() func() telemetry.Batch {
				g := workload.NewLogGen(workload.DefaultLogConfig(11))
				return func() telemetry.Batch { return g.NextWindow(1_000_000) }
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions(0.3, 0)
			opts.MaxQueuePerStage = 3000
			newPipe := func() *Pipeline {
				p, err := NewPipeline(tc.query(), opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.SetLoadFactors(tc.lf); err != nil {
					t.Fatal(err)
				}
				return p
			}
			newSP := func() *SPEngine {
				e, err := NewSPEngine(tc.query())
				if err != nil {
					t.Fatal(err)
				}
				e.RegisterSource(1)
				return e
			}
			rowPipe, mixPipe := newPipe(), newPipe()
			rowSP, mixSP, foldSP := newSP(), newSP(), newSP()

			type rowID struct {
				window int64
				key    telemetry.GroupKey
			}
			got := make(map[rowID]telemetry.AggRow)
			collect := func(out telemetry.Batch, into map[rowID]telemetry.AggRow) {
				for _, r := range out {
					row := *r.Data.(*telemetry.AggRow)
					id := rowID{row.Window, row.Key}
					if _, dup := into[id]; dup {
						t.Fatalf("row (window %d, key %v) emitted twice", row.Window, row.Key)
					}
					into[id] = row
				}
			}

			gen := tc.gen()
			var sawSpill, sawForced, sawCarry, sawMixedDrain bool
			var lastTime int64
			for epoch := 0; epoch < 40; epoch++ {
				var input telemetry.Batch
				var wave wire.ColumnarBatch
				switch {
				case epoch < 12:
					input = gen()
					lastTime = input.MaxTime()
					if err := foldSP.Ingest(0, input); err != nil {
						t.Fatal(err)
					}
					h := len(input) / 2
					wave.Secs = append([]wire.ColSec{{Rows: input[:h]}}, soaOf(t, input[h:])...)
				case rowPipe.PendingTotal() > 0:
					// Quiet epochs let the backlog run down.
				default:
					rowPipe.ObserveTime(lastTime + 20_000_000)
					mixPipe.ObserveTime(lastTime + 20_000_000)
				}
				if rowPipe.PendingTotal() > 0 {
					sawCarry = true
				}
				rres := rowPipe.RunEpoch(input)
				mres := mixPipe.RunEpochColumnar(&wave)
				if err := epochsEqual(rres, mres); err != nil {
					t.Fatalf("epoch %d: %v", epoch, err)
				}
				// Stages spend the budget in order, so the last one starves;
				// its load factor is 1, so whatever it drains is overflow.
				last := rres.Stats[len(rres.Stats)-1]
				sawForced = sawForced || last.Drained > 0
				sawSpill = sawSpill || last.Pending > 0

				for stage := range mres.Drains {
					d := mres.Drains[stage]
					sawMixedDrain = sawMixedDrain || (len(d.Secs) > 1 && d.Secs[0].Rows != nil && hasSoA(d))
				}
				if err := ingestEpoch(rowSP, rres); err != nil {
					t.Fatal(err)
				}
				if err := ingestEpoch(mixSP, mres); err != nil {
					t.Fatal(err)
				}
				rowSP.ObserveWatermark(1, rres.Watermark)
				mixSP.ObserveWatermark(1, mres.Watermark)
				rout, mout := rowSP.Advance(), mixSP.Advance()
				if err := batchesEqual(rout, mout); err != nil {
					t.Fatalf("epoch %d SP output: %v", epoch, err)
				}
				collect(mout, got)
			}
			if !sawSpill || !sawForced || !sawCarry || !sawMixedDrain {
				t.Fatalf("run too easy: spill %v, forced drain %v, carry-over %v, mixed drain %v",
					sawSpill, sawForced, sawCarry, sawMixedDrain)
			}
			if n := mixPipe.PendingTotal(); n != 0 {
				t.Fatalf("%d records still queued at the end", n)
			}

			want := make(map[rowID]telemetry.AggRow)
			foldSP.ObserveWatermark(1, lastTime+20_000_000)
			collect(foldSP.Advance(), want)
			if len(want) == 0 {
				t.Fatal("no result rows — the test is vacuous")
			}
			if len(got) != len(want) {
				t.Fatalf("%d result rows, want %d", len(got), len(want))
			}
			for id, w := range want {
				g := got[id]
				if g.Count != w.Count || g.Min != w.Min || g.Max != w.Max || math.Abs(g.Sum-w.Sum) > 1e-6*math.Abs(w.Sum) {
					t.Fatalf("row %+v = %+v, want %+v", id, g, w)
				}
			}
		})
	}
}

// TestDenseSpillAtFullLoad pins spill on a section forwarded whole: at
// load factor 1 a generator's dense section (no selection vector) that
// fits the stage's budget plus queue room is forwarded as it is, and a
// budget that runs out mid-section must still queue exactly its tail
// rows, in order, leaving every epoch — the arrival one and the quiet
// ones that run the queue down — equal to the row-input run's.
func TestDenseSpillAtFullLoad(t *testing.T) {
	rowGen := workload.NewPingGen(workload.DefaultPingConfig(5))
	colGen := workload.NewPingGen(workload.DefaultPingConfig(5))
	for _, budget := range []float64{0.0003, 0.001, 0.002} {
		newPipe := func() *Pipeline {
			p, err := NewPipeline(plan.S2SProbe(), DefaultOptions(budget, 0))
			if err != nil {
				t.Fatal(err)
			}
			if err := p.SetLoadFactors([]float64{1, 1, 1}); err != nil {
				t.Fatal(err)
			}
			return p
		}
		rowPipe, colPipe := newPipe(), newPipe()
		input := rowGen.NextWindow(1_000_000)
		var cb wire.ColumnarBatch
		colGen.NextWindowCols(1_000_000, &cb)
		if len(cb.Secs) != 1 || cb.Secs[0].Sel != nil {
			t.Fatalf("generator wave is not one dense section: %d sections", len(cb.Secs))
		}
		for epoch := 0; epoch < 3; epoch++ {
			rres := rowPipe.RunEpoch(input)
			cres := colPipe.RunEpochColumnar(&cb)
			if err := epochsEqual(rres, cres); err != nil {
				t.Fatalf("budget %v epoch %d: %v", budget, epoch, err)
			}
			if err := batchesEqual(rowPipe.queues[0], colPipe.queues[0]); err != nil {
				t.Fatalf("budget %v epoch %d: queues differ: %v", budget, epoch, err)
			}
			if epoch > 0 {
				continue
			}
			done := cres.Stats[0].Processed
			if done == 0 || done >= len(input) {
				t.Fatalf("budget %v: %d of %d rows processed — the budget does not run out mid-section", budget, done, len(input))
			}
			if err := batchesEqual(colPipe.queues[0], input[done:]); err != nil {
				t.Fatalf("budget %v: stage 0 queue is not the section's tail: %v", budget, err)
			}
			input, cb = nil, wire.ColumnarBatch{}
		}
	}
}
