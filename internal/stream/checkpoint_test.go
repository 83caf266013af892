package stream

import (
	"testing"

	"jarvis/internal/plan"
	"jarvis/internal/telemetry"
	"jarvis/internal/workload"
)

func TestCheckpointNonDestructive(t *testing.T) {
	p, err := NewPipeline(plan.S2SProbe(), DefaultOptions(1.0, 0))
	if err != nil {
		t.Fatal(err)
	}
	_ = p.SetLoadFactors([]float64{1, 1, 1})
	gen := workload.NewPingGen(workload.DefaultPingConfig(6))
	p.RunEpoch(gen.NextWindow(1_000_000))
	a := p.Capture(true)
	b := p.Capture(true)
	if len(a.Stages[2]) == 0 || a.Watermark == 0 {
		t.Fatalf("G+R state or watermark missing from capture: %d rows, watermark %d", len(a.Stages[2]), a.Watermark)
	}
	if len(a.Stages[2]) != len(b.Stages[2]) {
		t.Fatal("checkpointing must not consume state")
	}
}

// TestFailureRecovery is the §IV-E scenario: a source dies mid-window;
// the SP restores its last checkpoint plus the records drained since,
// and the window completes with every pre-failure record accounted for.
func TestFailureRecovery(t *testing.T) {
	q := plan.S2SProbe()

	// Reference: a healthy run over the whole window.
	ref := runPartitionedLocal(t, q, 42, -1)

	// Faulty run: the source processes epochs 0..5 locally, checkpoints
	// at epoch 5, then crashes. Epochs 6+ never happen on the source;
	// the generator replays them straight to the SP (the paper's replay
	// from the last successful checkpoint).
	got := runPartitionedLocal(t, q, 42, 5)

	if len(ref) == 0 || len(ref) != len(got) {
		t.Fatalf("row sets differ: %d vs %d", len(got), len(ref))
	}
	for k, want := range ref {
		g := got[k]
		if g.Count != want.Count || g.Min != want.Min || g.Max != want.Max {
			t.Fatalf("group %v: %+v vs %+v", k, g, want)
		}
	}
}

// runPartitionedLocal runs 10 s of data; if crashAt ≥ 0 the source fails
// after that epoch and recovery kicks in.
func runPartitionedLocal(t *testing.T, q *plan.Query, seed uint64, crashAt int) map[telemetry.GroupKey]telemetry.AggRow {
	t.Helper()
	src, err := NewPipeline(q, DefaultOptions(1.0, 0))
	if err != nil {
		t.Fatal(err)
	}
	_ = src.SetLoadFactors([]float64{1, 1, 1})
	sp, err := NewSPEngine(q)
	if err != nil {
		t.Fatal(err)
	}
	sp.RegisterSource(1)
	gen := workload.NewPingGen(workload.DefaultPingConfig(seed))

	var final telemetry.Batch
	crashed := false
	var lastCP Checkpoint
	for e := 0; e < 14; e++ {
		var batch telemetry.Batch
		if e < 10 {
			batch = gen.NextWindow(1_000_000)
		}
		if crashAt >= 0 && e > crashAt {
			if !crashed {
				crashed = true
				// Recovery: restore the checkpoint into the SP.
				if err := sp.Restore(1, &lastCP); err != nil {
					t.Fatal(err)
				}
			}
			// Post-crash records replay directly to the SP's head.
			if len(batch) > 0 {
				if err := sp.Ingest(0, batch); err != nil {
					t.Fatal(err)
				}
			}
			sp.ObserveWatermark(1, int64(e+1)*1_000_000)
			final = append(final, sp.Advance()...)
			continue
		}
		if len(batch) == 0 {
			src.ObserveTime(int64(e+1) * 1_000_000)
		}
		res := src.RunEpoch(batch)
		_ = ingestEpoch(sp, res)
		sp.ObserveWatermark(1, res.Watermark)
		final = append(final, sp.Advance()...)
		if crashAt >= 0 && e == crashAt {
			lastCP = src.Capture(true)
		}
	}
	rows := map[telemetry.GroupKey]telemetry.AggRow{}
	for _, r := range final {
		row := r.Data.(*telemetry.AggRow)
		if row.Window != 0 {
			continue
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
