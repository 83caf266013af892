package core

import (
	"testing"

	"jarvis/internal/plan"
	"jarvis/internal/telemetry"
	"jarvis/internal/workload"
)

func TestHierarchyValidation(t *testing.T) {
	if _, err := NewHierarchy(plan.S2SProbe(), 0, 1, SourceOptions{BudgetFrac: 1}); err == nil {
		t.Fatal("zero blocks must fail")
	}
	if _, err := NewHierarchy(plan.NewQuery("bad"), 1, 1, SourceOptions{BudgetFrac: 1}); err == nil {
		t.Fatal("invalid query must fail")
	}
}

// TestHierarchyMergesAcrossBlocks: two building blocks whose sources
// probe the *same* server pairs; the root must merge the per-block
// partial aggregates into global rows with the combined counts.
func TestHierarchyMergesAcrossBlocks(t *testing.T) {
	const (
		blocks    = 2
		perBlock  = 2
		epochs    = 16
		windowSec = 10
	)
	h, err := NewHierarchy(plan.S2SProbe(), blocks, perBlock, SourceOptions{
		BudgetFrac: 1.0, RateMbps: workload.PingmeshMbps10x, Adapt: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Blocks()) != blocks {
		t.Fatal("block count")
	}
	// All four sources share the same SrcIP so their records land in the
	// same groups — the cross-block merge case.
	gens := make([][]*workload.PingGen, blocks)
	total := 0
	for b := range gens {
		gens[b] = make([]*workload.PingGen, perBlock)
		for s := range gens[b] {
			cfg := workload.DefaultPingConfig(uint64(b*perBlock+s) + 1)
			cfg.SrcIP = 0x0A0000FF // identical across all sources
			cfg.Peers = 100
			gens[b][s] = workload.NewPingGen(cfg)
		}
	}

	rows := map[telemetry.GroupKey]*telemetry.AggRow{}
	for e := 0; e < epochs; e++ {
		batches := make([][]telemetry.Batch, blocks)
		for b := range batches {
			batches[b] = make([]telemetry.Batch, perBlock)
			for s := range batches[b] {
				if e < windowSec {
					batch := gens[b][s].NextWindow(1_000_000)
					batches[b][s] = batch
					for _, rec := range batch {
						// Count only window-0 probes (the generator's
						// event-time pacing drifts a few records past
						// the 10 s boundary into window 1).
						if rec.Time < 10_000_000 && rec.Data.(*telemetry.PingProbe).OK() {
							total++
						}
					}
				} else {
					h.Blocks()[b].Sources[s].ObserveTime(int64(e+1) * 1_000_000)
				}
			}
		}
		out, err := h.RunEpoch(batches)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range out {
			row := rec.Data.(*telemetry.AggRow)
			if row.Window != 0 {
				continue
			}
			if prev, ok := rows[row.Key]; ok {
				prev.Merge(*row)
			} else {
				cp := *row
				rows[row.Key] = &cp
			}
		}
	}
	if len(rows) == 0 {
		t.Fatal("no global rows")
	}
	var counted int64
	for _, row := range rows {
		counted += row.Count
	}
	if int(counted) != total {
		t.Fatalf("root counted %d records, sources emitted %d", counted, total)
	}
	// Every group must contain contributions from all four sources (they
	// probe the same peers): counts divisible across sources ⇒ roughly
	// 4× a single source's share.
	if h.RootIngressBytes() == 0 {
		t.Fatal("root ingress accounting")
	}
}

// TestHierarchyMatchesFlat: the hierarchy's global answer equals a flat
// single-SP deployment over the same streams.
func TestHierarchyMatchesFlat(t *testing.T) {
	mkGens := func() []*workload.PingGen {
		out := make([]*workload.PingGen, 2)
		for i := range out {
			cfg := workload.DefaultPingConfig(uint64(i) + 7)
			cfg.SrcIP = 0x0A000011 + uint32(i)
			cfg.Peers = 50
			out[i] = workload.NewPingGen(cfg)
		}
		return out
	}

	// Flat: both sources under one processor.
	flatBB, err := NewBuildingBlock(plan.S2SProbe(), 2, SourceOptions{
		BudgetFrac: 1, RateMbps: workload.PingmeshMbps10x, Adapt: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	flatGens := mkGens()
	flat := map[telemetry.GroupKey]int64{}
	for e := 0; e < 16; e++ {
		batches := make([]telemetry.Batch, 2)
		for i, g := range flatGens {
			if e < 10 {
				batches[i] = g.NextWindow(1_000_000)
			} else {
				flatBB.Sources[i].ObserveTime(int64(e+1) * 1_000_000)
			}
		}
		out, err := flatBB.RunEpoch(batches)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range out {
			row := rec.Data.(*telemetry.AggRow)
			if row.Window == 0 {
				flat[row.Key] += row.Count
			}
		}
	}

	// Hierarchy: the same two streams, one source per block.
	h, err := NewHierarchy(plan.S2SProbe(), 2, 1, SourceOptions{
		BudgetFrac: 1, RateMbps: workload.PingmeshMbps10x, Adapt: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	hGens := mkGens()
	hier := map[telemetry.GroupKey]int64{}
	for e := 0; e < 16; e++ {
		batches := make([][]telemetry.Batch, 2)
		for b, g := range hGens {
			batches[b] = make([]telemetry.Batch, 1)
			if e < 10 {
				batches[b][0] = g.NextWindow(1_000_000)
			} else {
				h.Blocks()[b].Sources[0].ObserveTime(int64(e+1) * 1_000_000)
			}
		}
		out, err := h.RunEpoch(batches)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range out {
			row := rec.Data.(*telemetry.AggRow)
			if row.Window == 0 {
				hier[row.Key] += row.Count
			}
		}
	}

	if len(flat) == 0 || len(flat) != len(hier) {
		t.Fatalf("group sets differ: flat %d, hierarchy %d", len(flat), len(hier))
	}
	for k, want := range flat {
		if hier[k] != want {
			t.Fatalf("group %v: hierarchy %d vs flat %d", k, hier[k], want)
		}
	}
}
