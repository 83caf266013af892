package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"jarvis/internal/plan"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
)

// epochFor builds a synthetic epoch result delivering a source's raw
// records at stage 0 (the all-drain regime of a zero-load-factor source).
func epochFor(batch telemetry.Batch, nops int) stream.EpochResult {
	drains := make([]telemetry.Batch, nops)
	drains[0] = batch
	return stream.EpochResult{
		Drains:    drains,
		Watermark: batch.MaxTime(),
	}
}

// collectRows folds result rows into (key, window) → count for
// order-insensitive comparison.
func collectRows(rows telemetry.Batch) map[string]int64 {
	out := map[string]int64{}
	for _, r := range rows {
		row := r.Data.(*telemetry.AggRow)
		out[fmt.Sprintf("%v/%d", row.Key, row.Window)] += row.Count
	}
	return out
}

// TestProcessorShardedMatchesSerial drives the same multi-source stream
// through a sharded processor and a serial one and requires identical
// merged results every epoch — the single-merge-point guarantee.
func TestProcessorShardedMatchesSerial(t *testing.T) {
	const sources = 6
	q := plan.S2SProbe()
	sharded, err := NewProcessor(q)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewProcessor(q)
	if err != nil {
		t.Fatal(err)
	}
	serial.SetMaxShards(1)
	nops := len(sharded.query.Ops)

	gens := make([]*workload.PingGen, sources)
	for i := range gens {
		cfg := workload.DefaultPingConfig(uint64(i) + 1)
		cfg.SrcIP = 0x0A000000 + uint32(i+1)
		gens[i] = workload.NewPingGen(cfg)
		sharded.RegisterSource(uint32(i + 1))
		serial.RegisterSource(uint32(i + 1))
	}

	sawRows := false
	for epoch := 0; epoch < 12; epoch++ {
		for i, g := range gens {
			batch := g.NextWindow(1_000_000)
			// Separate copies: Consume recycles its epoch's buffers.
			if err := sharded.Consume(uint32(i+1), epochFor(batch.Clone(), nops)); err != nil {
				t.Fatal(err)
			}
			if err := serial.Consume(uint32(i+1), epochFor(batch, nops)); err != nil {
				t.Fatal(err)
			}
		}
		sRows := sharded.Results()
		lRows := serial.Results()
		if err := sharded.Err(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(collectRows(sRows), collectRows(lRows)) {
			t.Fatalf("epoch %d: sharded and serial results differ (%d vs %d rows)",
				epoch, len(sRows), len(lRows))
		}
		if len(sRows) > 0 {
			sawRows = true
		}
	}
	if !sawRows {
		t.Fatal("no rows ever flushed — the comparison is vacuous")
	}
	if sharded.IngressBytes() != serial.IngressBytes() {
		t.Fatalf("ingress accounting differs: %d vs %d",
			sharded.IngressBytes(), serial.IngressBytes())
	}
}

// TestProcessorConcurrentConsume exercises the concurrent ingest path:
// many goroutines feed their own sources simultaneously (run with
// -race). Totals must match a serially fed twin.
func TestProcessorConcurrentConsume(t *testing.T) {
	const sources = 8
	const epochs = 5
	q := plan.S2SProbe()
	conc, err := NewProcessor(q)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewProcessor(q)
	if err != nil {
		t.Fatal(err)
	}
	serial.SetMaxShards(1)
	nops := len(conc.query.Ops)

	type feed struct {
		source uint32
		res    stream.EpochResult
	}
	var serialFeeds []feed
	batchesBySource := make([][]telemetry.Batch, sources)
	for i := 0; i < sources; i++ {
		cfg := workload.DefaultPingConfig(uint64(i) + 31)
		cfg.SrcIP = 0x0A000100 + uint32(i+1)
		g := workload.NewPingGen(cfg)
		conc.RegisterSource(uint32(i + 1))
		serial.RegisterSource(uint32(i + 1))
		for e := 0; e < epochs; e++ {
			b := g.NextWindow(2_500_000) // 2.5 s epochs close the 10 s window
			batchesBySource[i] = append(batchesBySource[i], b)
			serialFeeds = append(serialFeeds, feed{uint32(i + 1), epochFor(b.Clone(), nops)})
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < sources; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, b := range batchesBySource[i] {
				if err := conc.Consume(uint32(i+1), epochFor(b, nops)); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	concRows := collectRows(conc.Results())
	if err := conc.Err(); err != nil {
		t.Fatal(err)
	}

	for _, f := range serialFeeds {
		if err := serial.Consume(f.source, f.res); err != nil {
			t.Fatal(err)
		}
	}
	serialRows := collectRows(serial.Results())
	if len(concRows) == 0 {
		t.Fatal("concurrent run produced no rows")
	}
	if !reflect.DeepEqual(concRows, serialRows) {
		t.Fatalf("concurrent results diverge: %d vs %d groups", len(concRows), len(serialRows))
	}
}

// TestProcessorStatelessQueryStaysSerial pins the sharding guard: a
// query without a stateful stage has no merge point, so ingest must not
// shard (result relay order would become nondeterministic).
func TestProcessorStatelessQueryStaysSerial(t *testing.T) {
	q := plan.NewQuery("relay").
		WithRefRate(workload.PingmeshMbps10x, telemetry.PingProbeWireSize).
		FilterFunc("all", func(telemetry.Record) bool { return true }, 5, 1.0)
	p, err := NewProcessor(q)
	if err != nil {
		t.Fatal(err)
	}
	p.RegisterSource(1)
	g := workload.NewPingGen(workload.DefaultPingConfig(9))
	batch := g.Next(100)
	res := stream.EpochResult{Drains: []telemetry.Batch{batch}, Watermark: batch.MaxTime()}
	if err := p.Consume(1, res); err != nil {
		t.Fatal(err)
	}
	rows := p.Results()
	if len(rows) != 100 {
		t.Fatalf("relay query must pass all records through, got %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Time < rows[i-1].Time {
			t.Fatal("relay order must be preserved")
		}
	}
}

// TestProcessorMixedTransportShardedWatermark pins the merge seam
// between the two ingest paths: a lagging transport source (watermarks
// observed directly on the root engine) must hold back the flush of
// windows that sharded in-process sources have already passed.
func TestProcessorMixedTransportShardedWatermark(t *testing.T) {
	p, err := NewProcessor(plan.S2SProbe())
	if err != nil {
		t.Fatal(err)
	}
	nops := len(p.query.Ops)
	p.RegisterSource(1)
	e := p.Engine()
	e.RegisterSource(99)

	g := workload.NewPingGen(workload.DefaultPingConfig(40))
	gTrans := workload.NewPingGen(workload.DefaultPingConfig(41))
	for i := 0; i < 12; i++ {
		if err := p.Consume(1, epochFor(g.NextWindow(1_000_000), nops)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Ingest(0, gTrans.NextWindow(5_000_000)); err != nil {
		t.Fatal(err)
	}
	e.ObserveWatermark(99, 5_000_000)
	if rows := p.Results(); len(rows) != 0 {
		t.Fatalf("flushed %d rows past the transport source's 5s watermark", len(rows))
	}
	// Transport source catches up: the held-back window flushes once,
	// merging both paths' state.
	if err := e.Ingest(0, gTrans.NextWindow(7_000_000)); err != nil {
		t.Fatal(err)
	}
	e.ObserveWatermark(99, 12_000_000)
	rows := p.Results()
	if len(rows) == 0 {
		t.Fatal("window should flush once every source passes its end")
	}
	seen := map[string]bool{}
	for _, r := range rows {
		row := r.Data.(*telemetry.AggRow)
		k := fmt.Sprintf("%v/%d", row.Key, row.Window)
		if seen[k] {
			t.Fatalf("duplicate row for %s", k)
		}
		seen[k] = true
	}
}

// TestProcessorConsumeAfterTransportIngest pins backward compatibility:
// driving the root engine directly (the transport.Receiver pattern)
// keeps full serial semantics even on a shardable query.
func TestProcessorConsumeAfterTransportIngest(t *testing.T) {
	p, err := NewProcessor(plan.S2SProbe())
	if err != nil {
		t.Fatal(err)
	}
	g := workload.NewPingGen(workload.DefaultPingConfig(10))
	e := p.Engine()
	e.RegisterSource(1)
	for i := 0; i < 11; i++ {
		if err := e.Ingest(0, g.NextWindow(1_000_000)); err != nil {
			t.Fatal(err)
		}
		e.ObserveWatermark(1, int64(i+1)*1_000_000)
	}
	if rows := p.Results(); len(rows) == 0 {
		t.Fatal("engine-driven flow must still flush through Results")
	}
}

// TestProcessorConsumeColumnar feeds RunEpochColumnar results — records
// travel in ColDrains/ColResults, not Drains/Results — through Consume
// on the serial and the sharded path. Both must land exactly where the
// same trace run as rows lands; a Consume that reads only the row fields
// advances the watermark over nothing and closes every window empty.
func TestProcessorConsumeColumnar(t *testing.T) {
	const sources = 3
	q := plan.S2SProbe()
	run := func(columnar bool, maxShards int) (map[string]int64, int64) {
		proc, err := NewProcessor(q)
		if err != nil {
			t.Fatal(err)
		}
		proc.SetMaxShards(maxShards)
		srcs := make([]*Source, sources)
		gens := make([]*workload.PingGen, sources)
		for i := range srcs {
			// Load factors below 1 put records in the drains as well as
			// the results.
			if srcs[i], err = NewSource(q, SourceOptions{BudgetFrac: 4, Adapt: false}); err != nil {
				t.Fatal(err)
			}
			if err := srcs[i].SetLoadFactors([]float64{0.6, 0.6, 0.6}); err != nil {
				t.Fatal(err)
			}
			cfg := workload.DefaultPingConfig(uint64(i) + 1)
			cfg.SrcIP = 0x0A000000 + uint32(i+1)
			gens[i] = workload.NewPingGen(cfg)
			proc.RegisterSource(uint32(i + 1))
		}
		rows := map[string]int64{}
		var cb wire.ColumnarBatch
		for epoch := 0; epoch < 13; epoch++ {
			// Every source runs before Results: on the sharded path each
			// queued epoch must survive the others' column reuse.
			for i, src := range srcs {
				var res stream.EpochResult
				if columnar {
					cb.Reset()
					gens[i].NextWindowCols(1_000_000, &cb)
					res, err = src.RunEpochColumnar(&cb)
				} else {
					res, err = src.RunEpoch(gens[i].NextWindow(1_000_000))
				}
				if err != nil {
					t.Fatal(err)
				}
				if columnar && epoch == 0 {
					n := res.ColResults.Records()
					for s := range res.ColDrains {
						n += res.ColDrains[s].Records()
					}
					if n == 0 {
						t.Fatal("columnar epoch carries no columnar records: the test is vacuous")
					}
				}
				if err := proc.Consume(uint32(i+1), res); err != nil {
					t.Fatal(err)
				}
			}
			for k, n := range collectRows(proc.Results()) {
				rows[k] += n
			}
			if err := proc.Err(); err != nil {
				t.Fatal(err)
			}
		}
		return rows, proc.IngressBytes()
	}

	want, wantBytes := run(false, 1)
	if len(want) == 0 {
		t.Fatal("row reference produced no result rows")
	}
	for name, shards := range map[string]int{"serial": 1, "sharded": 4} {
		got, gotBytes := run(true, shards)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: columnar epochs produced %d result groups, rows produced %d (or counts differ)", name, len(got), len(want))
		}
		if gotBytes != wantBytes {
			t.Fatalf("%s: ingress %d bytes from columnar epochs, %d from rows", name, gotBytes, wantBytes)
		}
	}
}
