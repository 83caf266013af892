package stream_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"jarvis/internal/checkpoint"
	"jarvis/internal/operator"
	"jarvis/internal/plan"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/workload"
)

// captureEngine is the surface TestCaptureContract drives: one epoch of
// input (with the event-time progress that closes windows), and the
// engine's single capture entry.
type captureEngine interface {
	Capture(full bool) stream.Checkpoint
	Operators() []operator.Operator
	epoch(e int, in telemetry.Batch)
}

type pipeEngine struct{ *stream.Pipeline }

func (p pipeEngine) epoch(_ int, in telemetry.Batch) { p.RunEpoch(in) }

type spEngine struct{ *stream.SPEngine }

func (s spEngine) epoch(e int, in telemetry.Batch) {
	if err := s.Ingest(0, in); err != nil {
		panic(err)
	}
	s.ObserveWatermark(1, int64(e)*1_000_000)
	s.Advance()
}

// joinBufferedPlan is a windowed static-table join whose table covers
// only some destination IPs, feeding a group-by. The test turns miss
// buffering on, which makes the join the one stage captured in replace
// mode (no shipped plan enables it).
func joinBufferedPlan() *plan.Query {
	var ips []uint32
	for i := 0; i < 2000; i++ {
		ips = append(ips, 0x0B000000+uint32(i))
	}
	table := telemetry.NewToRTable(ips, 40)
	lookup := func(rec telemetry.Record) (telemetry.Record, bool) {
		p, ok := rec.Data.(*telemetry.PingProbe)
		if !ok {
			return rec, false
		}
		tor, ok := table.Lookup(p.DstIP)
		if !ok {
			return rec, false
		}
		out := rec
		out.Data = &telemetry.ToRProbe{Timestamp: p.Timestamp, DstToR: tor, RTTMicros: p.RTTMicros}
		out.WireSize = telemetry.ToRProbeWireSize
		return out, true
	}
	return plan.NewQuery("JoinBuffered").
		WithRefRate(workload.PingmeshMbps10x, telemetry.PingProbeWireSize).
		Window(10*time.Second, 1.0).
		Join("dstToR", table.Len(), lookup, 5.0, 0.5).
		GroupAgg("torAgg", operator.ToRPairKey, operator.ToRRTT, 6.6, 0.05)
}

// canonStages flattens captured stages into a multiset of row values,
// so captures compare independent of map iteration order.
func canonStages(t *testing.T, stages map[int]telemetry.Batch) map[string]int {
	t.Helper()
	out := make(map[string]int)
	for st, rows := range stages {
		for _, rec := range rows {
			v := reflect.ValueOf(rec.Data)
			if v.Kind() != reflect.Pointer {
				t.Fatalf("stage %d holds %T", st, rec.Data)
			}
			out[fmt.Sprintf("%d|%d|%d|%T%+v", st, rec.Time, rec.Window, rec.Data, v.Elem().Interface())]++
		}
	}
	return out
}

// TestCaptureContract pins the one capture entry of both engines: a
// delta taken right after a full capture carries nothing (the full
// capture started the dirty generation itself), and a full capture
// followed by a delta per epoch — across a window rollover, so closed-
// window tombstones are exercised — folds with checkpoint.ApplyDelta to
// exactly what one full capture of the final state holds.
func TestCaptureContract(t *testing.T) {
	pingGen := func() func(int64) telemetry.Batch {
		return workload.NewPingGen(workload.DefaultPingConfig(5)).NextWindow
	}
	logGen := func() func(int64) telemetry.Batch {
		return workload.NewLogGen(workload.DefaultLogConfig(5)).NextWindow
	}
	plans := []struct {
		name         string
		query        func() *plan.Query
		gen          func() func(int64) telemetry.Batch
		bufferMisses bool
	}{
		{"S2SProbe", plan.S2SProbe, pingGen, false},
		{"LogAnalytics", plan.LogAnalytics, logGen, false},
		{"JoinBufferMisses", joinBufferedPlan, pingGen, true},
	}
	engines := []struct {
		name string
		make func(q *plan.Query) (captureEngine, error)
	}{
		{"Pipeline", func(q *plan.Query) (captureEngine, error) {
			p, err := stream.NewPipeline(q, stream.DefaultOptions(8.0, 0))
			if err != nil {
				return nil, err
			}
			ones := make([]float64, len(q.Ops))
			for i := range ones {
				ones[i] = 1
			}
			return pipeEngine{p}, p.SetLoadFactors(ones)
		}},
		{"SPEngine", func(q *plan.Query) (captureEngine, error) {
			e, err := stream.NewSPEngine(q)
			if err == nil {
				e.RegisterSource(1)
			}
			return spEngine{e}, err
		}},
	}
	for _, pc := range plans {
		for _, ec := range engines {
			t.Run(pc.name+"/"+ec.name, func(t *testing.T) {
				q := pc.query()
				eng, err := ec.make(q)
				if err != nil {
					t.Fatal(err)
				}
				replaceStage := -1
				if pc.bufferMisses {
					for i, op := range eng.Operators() {
						if j, ok := op.(*operator.Join); ok {
							j.BufferMisses(q.WindowDur())
							replaceStage = i
						}
					}
				}
				next := pc.gen()
				for e := 1; e <= 2; e++ {
					eng.epoch(e, next(1_000_000))
				}

				base := eng.Capture(true)
				if base.Delta || base.Meta != nil || len(base.Stages) == 0 {
					t.Fatalf("full capture: delta=%v meta=%v stages=%d", base.Delta, base.Meta, len(base.Stages))
				}
				if pc.bufferMisses && len(base.Stages[replaceStage]) == 0 {
					t.Fatal("the join buffered no misses: the replace-mode stage is not exercised")
				}
				empty := eng.Capture(false)
				if !empty.Delta {
					t.Fatal("Capture(false) did not mark the capture as delta")
				}
				for st, rows := range empty.Stages {
					if !empty.Meta[st].Replace {
						t.Fatalf("delta right after a full capture carries %d rows for stage %d", len(rows), st)
					}
				}
				for st, m := range empty.Meta {
					if len(m.Closed) > 0 {
						t.Fatalf("delta right after a full capture closes windows %v of stage %d", m.Closed, st)
					}
				}

				folded := &checkpoint.Snapshot{Checkpoint: base}
				folded = checkpoint.ApplyDelta(folded, &checkpoint.Snapshot{Checkpoint: empty})
				sawReplace, sawClosed := false, false
				for e := 3; e <= 14; e++ {
					eng.epoch(e, next(1_000_000))
					d := eng.Capture(false)
					for _, m := range d.Meta {
						sawReplace = sawReplace || m.Replace
						sawClosed = sawClosed || len(m.Closed) > 0
					}
					folded = checkpoint.ApplyDelta(folded, &checkpoint.Snapshot{Checkpoint: d})
				}
				if sawReplace != pc.bufferMisses {
					t.Fatalf("replace-mode stage seen = %v, want %v", sawReplace, pc.bufferMisses)
				}
				if !sawClosed {
					t.Fatal("no window closed across the deltas: tombstones are not exercised")
				}

				want := eng.Capture(true)
				got, exp := canonStages(t, folded.Stages), canonStages(t, want.Stages)
				if len(exp) == 0 {
					t.Fatal("final full capture is empty")
				}
				if !reflect.DeepEqual(got, exp) {
					t.Fatalf("base + deltas folded to %d distinct rows, one full capture holds %d", len(got), len(exp))
				}
			})
		}
	}
}
