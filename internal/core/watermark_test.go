package core

import (
	"fmt"
	"testing"

	"jarvis/internal/plan"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/workload"
)

// TestNoDuplicateWindowRowsUnderExhaustedBudget pins the agent
// watermark's contract under backlog: a stage queue is not time-ordered
// (a cascade of older upstream carry-over lands behind newer spilled
// arrivals), so the watermark must stay below every queued record, not
// just the queue heads. When it overtakes one, the SP closes that
// record's window, the late record re-opens it, and the (window, key)
// row is emitted a second time.
func TestNoDuplicateWindowRowsUnderExhaustedBudget(t *testing.T) {
	for _, budget := range []float64{0.005, 0.02, 0.05, 0.08, 0.3} {
		t.Run(fmt.Sprintf("budget=%v", budget), func(t *testing.T) {
			src, err := NewSource(plan.S2SProbe(), SourceOptions{BudgetFrac: budget, Adapt: true})
			if err != nil {
				t.Fatal(err)
			}
			sp, err := stream.NewSPEngine(src.Query())
			if err != nil {
				t.Fatal(err)
			}
			sp.RegisterSource(1)
			gen := workload.NewPingGen(workload.DefaultPingConfig(7))
			type rowID struct {
				window int64
				key    telemetry.GroupKey
			}
			seen := make(map[rowID]bool)
			dups := 0
			for e := 0; e < 90; e++ {
				res, err := src.RunEpoch(gen.NextWindow(1_000_000))
				if err != nil {
					t.Fatal(err)
				}
				for stage, d := range res.Drains {
					if err := sp.Ingest(stage, d); err != nil {
						t.Fatal(err)
					}
				}
				if err := sp.Ingest(res.ResultStage, res.Results); err != nil {
					t.Fatal(err)
				}
				sp.ObserveWatermark(1, res.Watermark)
				for _, r := range sp.Advance() {
					row := r.Data.(*telemetry.AggRow)
					id := rowID{row.Window, row.Key}
					if seen[id] {
						dups++
					}
					seen[id] = true
				}
			}
			if len(seen) == 0 {
				t.Fatal("no result rows — the test is vacuous")
			}
			if dups > 0 {
				t.Fatalf("%d of %d (window, key) result rows were emitted twice", dups, len(seen)+dups)
			}
		})
	}
}
