package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"jarvis/internal/plan"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/transport"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
)

// epochFor builds a synthetic epoch result delivering a source's raw
// records at stage 0 (the all-drain regime of a zero-load-factor source).
func epochFor(batch telemetry.Batch, nops int) stream.EpochResult {
	drains := make([]wire.ColumnarBatch, nops)
	drains[0] = rowsBatch(batch)
	return stream.EpochResult{
		Drains:    drains,
		Watermark: batch.MaxTime(),
	}
}

// rowsBatch presents records as an epoch output batch: one Rows section.
func rowsBatch(rows telemetry.Batch) wire.ColumnarBatch {
	return wire.ColumnarBatch{Secs: []wire.ColSec{{Rows: rows}}}
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

// TestProcessorConcurrentConsume runs concurrent in-memory sessions on
// one receiver: many goroutines feed their own sources simultaneously
// (run with -race). Totals must match a serially fed twin.
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

// TestProcessorMixedTransportWatermark feeds one engine from both sides:
// a lagging source driven directly on the engine (what a receiver of the
// caller's own does) must hold back the flush of windows that in-process
// sources have already passed.
func TestProcessorMixedTransportWatermark(t *testing.T) {
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
	// merging both sources' state.
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

// TestProcessorConsumeAfterTransportIngest: an engine driven only from
// outside (the pattern of a process with its own transport.Receiver)
// still flushes through Results.
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

// TestProcessorConsumeColumnar feeds RunEpochColumnar results — drains
// that are SoA sections, results that are flushed rows — through
// Consume. They must land exactly where the same trace run as rows lands.
func TestProcessorConsumeColumnar(t *testing.T) {
	const sources = 3
	q := plan.S2SProbe()
	run := func(columnar bool) (map[string]int64, int64) {
		proc, err := NewProcessor(q)
		if err != nil {
			t.Fatal(err)
		}
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
					n := 0
					for s := range res.Drains {
						for _, sec := range res.Drains[s].Secs {
							if sec.Rows == nil {
								n += sec.Len()
							}
						}
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
		}
		return rows, proc.IngressBytes()
	}

	want, wantBytes := run(false)
	if len(want) == 0 {
		t.Fatal("row reference produced no result rows")
	}
	got, gotBytes := run(true)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("columnar epochs produced %d result groups, rows produced %d (or counts differ)", len(got), len(want))
	}
	if gotBytes != wantBytes {
		t.Fatalf("ingress %d bytes from columnar epochs, %d from rows", gotBytes, wantBytes)
	}
}

// rowSet counts identical result rows, every field compared.
func rowSet(rows telemetry.Batch) map[telemetry.AggRow]int {
	out := map[telemetry.AggRow]int{}
	for _, r := range rows {
		out[*r.Data.(*telemetry.AggRow)]++
	}
	return out
}

// epochFeed drives n sources through a fixed schedule of row, columnar
// and empty 2.5 s epochs (a 10 s window closes every fourth) and hands
// each result to deliver.
func epochFeed(t *testing.T, q *plan.Query, n, epochs int, deliver func(epoch int, source uint32, res stream.EpochResult)) {
	t.Helper()
	const dur = 2_500_000
	srcs := make([]*Source, n)
	gens := make([]*workload.PingGen, n)
	for i := range srcs {
		var err error
		// Load factors below 1 put records in the drains as well as the
		// results.
		if srcs[i], err = NewSource(q, SourceOptions{BudgetFrac: 4, Adapt: false}); err != nil {
			t.Fatal(err)
		}
		if err := srcs[i].SetLoadFactors([]float64{0.6, 0.6, 0.6}); err != nil {
			t.Fatal(err)
		}
		cfg := workload.DefaultPingConfig(uint64(i) + 71)
		cfg.SrcIP = 0x0A000200 + uint32(i+1)
		gens[i] = workload.NewPingGen(cfg)
	}
	var cb wire.ColumnarBatch
	for epoch := 0; epoch < epochs; epoch++ {
		for i, src := range srcs {
			var (
				res stream.EpochResult
				err error
			)
			switch {
			case epoch%5 == 3: // a quiet epoch: event time moves, no records
				gens[i].SkipWindow(dur)
				src.ObserveTime(int64(epoch+1) * dur)
				res, err = src.RunEpoch(nil)
			case (epoch+i)%2 == 0:
				cb.Reset()
				gens[i].NextWindowCols(dur, &cb)
				res, err = src.RunEpochColumnar(&cb)
			default:
				res, err = src.RunEpoch(gens[i].NextWindow(dur))
			}
			if err != nil {
				t.Fatal(err)
			}
			deliver(epoch, uint32(i+1), res)
		}
	}
}

// TestProcessorConsumeIsTheWireSession states Consume's contract: the
// same epochs fed through Consume and, on a twin engine, through a live
// ConnectConn session over net.Pipe yield identical rows epoch by epoch,
// equal ingress bytes, and one applied sequence number per epoch.
func TestProcessorConsumeIsTheWireSession(t *testing.T) {
	const sources, epochs = 2, 14
	q := plan.S2SProbe()
	proc, err := NewProcessor(q)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewProcessor(q)
	if err != nil {
		t.Fatal(err)
	}
	live := transport.NewReceiver(twin.Engine())
	ships := make([]*transport.DurableShipper, sources)
	var served sync.WaitGroup
	defer served.Wait() // after the deferred Closes below end the sessions
	for i := range ships {
		id := uint32(i + 1)
		proc.RegisterSource(id)
		live.RegisterSource(id)
		client, server := net.Pipe()
		served.Add(1)
		go func() {
			defer served.Done()
			if err := live.HandleConn(server); err != nil {
				t.Error(err)
			}
		}()
		ships[i] = transport.NewDurableShipper(id, 0)
		if err := ships[i].ConnectConn(client); err != nil {
			t.Fatal(err)
		}
		defer ships[i].Close()
	}

	flushed, lastEpoch := 0, -1
	compare := func(epoch int) {
		got, want := proc.Results(), live.Advance()
		if !reflect.DeepEqual(rowSet(got), rowSet(want)) {
			t.Fatalf("epoch %d: Consume flushed %d rows, the live session %d (or rows differ)", epoch, len(got), len(want))
		}
		if len(got) > 0 {
			flushed++
		}
	}
	epochFeed(t, q, sources, epochs, func(epoch int, source uint32, res stream.EpochResult) {
		if epoch != lastEpoch && lastEpoch >= 0 {
			compare(lastEpoch)
		}
		lastEpoch = epoch
		// Each epoch is applied before the next source ships, so both
		// engines fold the sources in the same order.
		if err := ships[source-1].ShipEpoch(res); err != nil {
			t.Fatal(err)
		}
		if err := proc.Consume(source, res); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for live.AppliedSeq(source) != uint64(epoch+1) {
			if time.Now().After(deadline) {
				t.Fatalf("epoch %d: live session never applied source %d", epoch, source)
			}
			time.Sleep(time.Millisecond)
		}
	})
	compare(lastEpoch)
	if flushed < 2 {
		t.Fatalf("only %d epochs flushed rows — the comparison is vacuous", flushed)
	}
	if got, want := proc.IngressBytes(), twin.IngressBytes(); got != want || got == 0 {
		t.Fatalf("ingress %d bytes through Consume, %d through the live session", got, want)
	}
	for id := uint32(1); id <= sources; id++ {
		if got := proc.rc.AppliedSeq(id); got != epochs {
			t.Fatalf("source %d: applied seq %d after %d epochs", id, got, epochs)
		}
	}
}

// refuseOnce is a hello gate that turns one session away.
type refuseOnce struct{ armed bool }

func (g *refuseOnce) AdmitHello(uint64) (uint64, error) {
	if g.armed {
		g.armed = false
		return 0, errors.New("refused once")
	}
	return 0, nil
}

// TestProcessorConsumeReplaysFailedFlush: an epoch whose session failed
// stays in the shipper's replay buffer and the next Consume's session
// applies it exactly once — whether the receiver had applied nothing of
// it (a refused hello) or all of it (acks lost). The caller does not
// Consume it again.
func TestProcessorConsumeReplaysFailedFlush(t *testing.T) {
	const epochs = 13
	q := plan.S2SProbe()
	proc, err := NewProcessor(q)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewProcessor(q)
	if err != nil {
		t.Fatal(err)
	}
	want := map[telemetry.AggRow]int{}
	epochFeed(t, q, 1, epochs, func(_ int, source uint32, res stream.EpochResult) {
		if err := ref.Consume(source, res); err != nil {
			t.Fatal(err)
		}
		for row, n := range rowSet(ref.Results()) {
			want[row] += n
		}
	})

	gate := &refuseOnce{}
	got := map[telemetry.AggRow]int{}
	epochFeed(t, q, 1, epochs, func(epoch int, source uint32, res stream.EpochResult) {
		switch epoch {
		case 4: // the session is refused: nothing of the epoch is applied
			proc.rc.SetHelloGate(gate)
			gate.armed = true
			if err := proc.Consume(source, res); err == nil {
				t.Fatal("refused session reported no error")
			}
			if seq := proc.rc.AppliedSeq(source); seq != 4 {
				t.Fatalf("applied seq %d after a refused fifth epoch", seq)
			}
		case 8: // the epoch is applied but its acks never reach the shipper
			ship, rc := proc.session(source)
			if err := ship.ShipEpoch(res); err != nil {
				t.Fatal(err)
			}
			data, err := ship.ResumeBytes()
			if err != nil {
				t.Fatal(err)
			}
			if err := rc.HandleConn(struct {
				io.Reader
				io.Writer
			}{bytes.NewReader(data), io.Discard}); err != nil {
				t.Fatal(err)
			}
		default:
			if err := proc.Consume(source, res); err != nil {
				t.Fatal(err)
			}
			if seq := proc.rc.AppliedSeq(source); seq != uint64(epoch+1) {
				t.Fatalf("epoch %d: applied seq %d", epoch, seq)
			}
		}
		for row, n := range rowSet(proc.Results()) {
			got[row] += n
		}
	})
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("%d result rows after two failed sessions, %d without them (or rows differ)", len(got), len(want))
	}
	ctr := proc.rc.Counters()
	if applied, replayed := ctr.Get(transport.CtrEpochsApplied), ctr.Get(transport.CtrEpochsReplayed); applied != epochs || replayed != 1 {
		t.Fatalf("%d epochs applied and %d discarded as duplicates, want %d and 1", applied, replayed, epochs)
	}
	if got, want := proc.IngressBytes(), ref.IngressBytes(); got != want {
		t.Fatalf("ingress %d bytes, %d without the failed sessions", got, want)
	}
}
