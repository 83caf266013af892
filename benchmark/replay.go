package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"jarvis/internal/checkpoint"
	"jarvis/internal/core"
	"jarvis/internal/ha"
	"jarvis/internal/obs"
	"jarvis/internal/transport"
	"jarvis/internal/wire"
)

// tracedPhases splits the traced run's seconds: an untraced open loop
// (the baseline of trace.overhead_pct), the traced open loop, and two
// saturation phases, observability on then off.
func (o options) tracedPhases() (warm, untraced, traced, sat time.Duration) {
	if o.smoke {
		return 400 * time.Millisecond, 300 * time.Millisecond, 500 * time.Millisecond, 200 * time.Millisecond
	}
	total := time.Duration(o.seconds * float64(time.Second))
	return warmUp, total / 4, total * 7 / 20, total / 5
}

// allocs reads the process's cumulative heap allocation counters. The
// offline passes that use it run on one goroutine with the topology
// closed, so a difference belongs to the bracketed call.
func allocs() (objects, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// runTraced is the traced run. Its end-to-end numbers are not reported:
// they come from the untraced run, always.
func runTraced(s *spec, o options) (*report, error) {
	warm, untraced, traced, sat := o.tracedPhases()
	nWarm := int(warm / s.period)
	rep := newReport()

	pools := newPools(s, o.seed)
	var genMs []float64
	for _, p := range pools {
		genMs = append(genMs, p.genMillis...)
	}

	want, err := oracle(s, o.seed)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}

	// Baseline: the same open loop with no tracer, recorder or wrappers.
	// Its set-up is the process's first, the one that pays whatever
	// process-wide one-time work the median behind setup_s discards.
	base, setupFirstS, err := setUpOnce(s, o, pools)
	if err != nil {
		return nil, err
	}
	bst, err := base.openLoop(nWarm, int(untraced/s.period))
	if err != nil {
		base.close()
		return nil, err
	}
	base.drain()
	bres := base.reduce(bst)
	base.close()

	tr := newTracer()
	t, err := standUp(s, o.scratch, tr)
	if err != nil {
		return nil, err
	}
	defer t.close()
	t.attach(pools)
	st, err := t.openLoop(nWarm, int(traced/s.period))
	if err != nil {
		return nil, err
	}
	openEnd := time.Now()
	factors := t.loadFactors()
	satOn, err := t.saturate(sat)
	if err != nil {
		return nil, err
	}
	obs.SetEnabled(false)
	satOff, err := t.saturate(sat)
	obs.SetEnabled(true)
	if err != nil {
		return nil, err
	}
	if !t.connected() {
		return nil, errors.New("an agent was disconnected during the traced run")
	}
	t.drain()
	res := t.reduce(st)
	rep.result.Attempted, rep.result.Failed = t.failures()
	windows, err := t.checkLog(want)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	rep.note("traced run: warm-up %d epochs/agent, untraced open loop %v, traced open loop %v, saturation %v obs on + %v obs off", nWarm, untraced, traced, sat, sat)
	rep.note("oracle: %d windows equal the unpartitioned fold of the regenerated input", windows)
	rep.note("per-layer values are per-epoch medians unless the README says otherwise; %d traced epochs, %d spans", len(res.latencies), tr.count())

	layer := tr.layers(st.start, openEnd)
	rep.set("setup.first_round_s", setupFirstS, "s")
	rep.set("workload.generate_ms", median(genMs), "ms")
	rep.set("workload.records_per_epoch", median(res.epochRecord), "count")
	slices.Sort(st.lateMs)
	rep.set("workload.late_p99_ms", percentile(st.lateMs, 99), "ms")

	rep.set("core.run_epoch_ms", median(layer["core.run_epoch"].total), "ms")
	rep.set("core.drained_frac", float64(res.drained)/float64(res.records), "ratio")
	rep.set("core.budget_used_frac", median(res.budgetUsed), "ratio")
	conv, err := convergeDrill(s, pools[0])
	if err != nil {
		return nil, err
	}
	rep.set("core.run_epoch_allocs", conv.allocsPerEpoch, "count")
	rep.set("runtime.cold_converge_epochs", float64(conv.cold), "count")
	rep.set("runtime.step_converge_epochs", float64(conv.step), "count")
	var lfs []float64
	for _, f := range factors {
		lfs = append(lfs, f...)
	}
	rep.set("runtime.lf_final_mean", mean(lfs), "ratio")

	lr, err := layerReplay(s, t.capture.bytes(), t.agents)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	rep.note("layer replay: %d captured epochs on one goroutine", lr.epochs)
	rep.set("wire.encode_ms", median(layer["transport.ship_epoch"].self), "ms")
	rep.set("wire.decode_ms", median(lr.decodeMs), "ms")
	rep.set("wire.decode_alloc_bytes", median(lr.decodeAllocBytes), "B")
	rep.set("wire.bytes_per_epoch", median(res.epochBytes), "B")
	rep.set("wire.compression_ratio", t.rc.Counters().FloatGauge(transport.GaugeWireCompressionRatio).Value(), "ratio")

	rep.set("transport.ship_epoch_ms", median(layer["transport.ship_epoch"].total), "ms")
	rep.set("transport.conn_write_ms", median(layer["transport.conn_write"].total), "ms")
	rep.set("transport.recv_to_ack_ms", median(layer["transport.recv_to_ack"].total), "ms")
	rep.set("transport.ack_p90_ms", percentile(res.latencies, 90), "ms")
	rep.set("transport.ack_p99_ms", percentile(res.latencies, 99), "ms")
	rep.set("transport.unacked_max", float64(st.unackedMax), "count")
	rep.set("transport.epochs_replayed", float64(t.rc.Counters().Get(transport.CtrEpochsReplayed)), "count")
	var reconnects int64
	for _, a := range t.agents {
		reconnects += a.ship.Counters().Get(transport.CtrReconnects) - 1 // the first connect counts as one
	}
	rep.set("transport.reconnects", float64(reconnects), "count")

	rep.set("stream.ingest_ms", median(lr.ingestMs), "ms")
	rep.set("stream.ingest_allocs", median(lr.ingestAllocs), "count")
	rep.set("stream.advance_ms", mean(lr.advanceMs), "ms")
	rep.set("stream.result_rows", float64(lr.resultRows), "count")

	ck, err := checkpointDrills(s, t, o.scratch)
	if err != nil {
		return nil, err
	}
	rep.set("checkpoint.advance_ms", median(layer["checkpoint.advance"].total), "ms")
	rep.set("checkpoint.save_ms", median(ck.saveMs), "ms")
	rep.set("checkpoint.snapshot_bytes", median(ck.snapshotBytes), "B")
	rep.set("checkpoint.restore_ms", median(ck.restoreMs), "ms")
	rep.set("checkpoint.restore_alloc_bytes", median(ck.restoreAllocBytes), "B")
	rep.set("ha.publish_ms", median(layer["ha.publish"].total), "ms")
	rep.set("ha.wait_durable_ms", median(layer["ha.wait_durable"].total), "ms")
	rep.set("ha.apply_ms", median(ck.applyMs), "ms")

	rep.set("replay.records_per_s", lr.recordsPerS, "1/s")
	rep.set("obs.sat_overhead_pct", (satOff-satOn)/satOff*100, "%")
	p50u, _ := bres.segmentMedian(50)
	p50t, _ := res.segmentMedian(50)
	rep.set("trace.overhead_pct", (p50t-p50u)/p50u*100, "%")
	rep.note("ack_p50_ms untraced %.3f (%d samples) traced %.3f (%d samples); saturation obs on %.0f off %.0f records/s",
		p50u, len(bres.latencies), p50t, len(res.latencies), satOn, satOff)

	if o.traceOut != "" {
		if err := tr.writeTo(o.traceOut); err != nil {
			return nil, fmt.Errorf("trace-out: %w", err)
		}
	}
	return rep, nil
}

// replayResult is the single-goroutine pass over the captured traffic.
type replayResult struct {
	epochs           int
	decodeMs         []float64
	decodeAllocBytes []float64
	ingestMs         []float64
	ingestAllocs     []float64
	advanceMs        []float64
	resultRows       int
	recordsPerS      float64
}

// replayRounds bounds the layer replay: one round is one epoch of every
// connection.
const replayRounds = 150

// layerReplay times the SP-side layers one long-lived HandleConn call
// hides. It reads the traced run's traffic capture (each connection's
// hello plus per-epoch frame runs), and for each epoch, on this one
// goroutine, decodes the frames with columnar execution and pooled
// arenas as the receiver does, ingests them into a fresh engine, and
// advances it. The sum of the three is the one-core SP baseline.
func layerReplay(s *spec, capture []byte, agents []*agent) (*replayResult, error) {
	conns, err := transport.ReadTrafficCapture(capture)
	if err != nil {
		return nil, err
	}
	proc, err := core.NewProcessor(s.query())
	if err != nil {
		return nil, err
	}
	eng := proc.Engine()
	type stream struct {
		src    uint32
		epochs [][][]byte
		fr     *wire.FrameReader
	}
	var streams []*stream
	rounds := 0
	for _, c := range conns {
		src, err := c.HelloSource()
		if err != nil {
			return nil, err
		}
		_, epochs, err := c.Epochs()
		if err != nil {
			return nil, err
		}
		// The capture was armed mid-stream: the first run may be the tail of
		// an epoch already in flight.
		if len(epochs) < 3 {
			return nil, fmt.Errorf("connection of source %d captured %d epochs", src, len(epochs))
		}
		fr := wire.NewFrameReader(bytes.NewReader(nil))
		fr.SetColumnarExec(true)
		fr.EnableArenaPooling()
		eng.RegisterSource(src)
		streams = append(streams, &stream{src: src, epochs: epochs[1:], fr: fr})
		if rounds == 0 || len(epochs)-1 < rounds {
			rounds = len(epochs) - 1
		}
	}
	rounds = min(rounds, replayRounds)
	recordsOf := func(src uint32, seq uint64) int {
		for _, a := range agents {
			if a.id == src && int(seq) < len(a.epochs) {
				return a.epochs[seq].records
			}
		}
		return 0
	}

	out := &replayResult{}
	var busy time.Duration
	var records int
	var buf []byte
	var frames []wire.Frame
	for r := 0; r < rounds; r++ {
		for _, st := range streams {
			buf = buf[:0]
			for _, f := range st.epochs[r] {
				buf = binary.BigEndian.AppendUint32(buf, uint32(len(f)))
				buf = append(buf, f...)
			}
			st.fr.Reset(bytes.NewReader(buf))
			frames = frames[:0]

			_, b0 := allocs()
			start := time.Now()
			for {
				f, err := st.fr.ReadFrame()
				if err == io.EOF {
					break
				}
				if err != nil {
					return nil, err
				}
				frames = append(frames, f)
			}
			decode := time.Since(start)
			m1, b1 := allocs()

			start = time.Now()
			for _, f := range frames {
				switch {
				case f.StreamID == wire.ControlStreamID:
					for _, rec := range f.Records {
						if end, ok := rec.Data.(*wire.EpochEnd); ok {
							eng.ObserveWatermark(st.src, end.Watermark)
							records += recordsOf(st.src, end.Seq)
						}
					}
				case f.StreamID == transport.WatermarkStreamID:
				case f.Cols != nil:
					err = eng.IngestColumnar(int(f.StreamID), f.Cols)
				default:
					err = eng.Ingest(int(f.StreamID), f.Records)
				}
				if err != nil {
					return nil, err
				}
			}
			ingest := time.Since(start)
			m2, _ := allocs()
			st.fr.RecycleArenas()

			out.decodeMs = append(out.decodeMs, ms(decode))
			out.decodeAllocBytes = append(out.decodeAllocBytes, float64(b1-b0))
			out.ingestMs = append(out.ingestMs, ms(ingest))
			out.ingestAllocs = append(out.ingestAllocs, float64(m2-m1))
			busy += decode + ingest
			out.epochs++
		}
		start := time.Now()
		rows := eng.Advance()
		adv := time.Since(start)
		out.advanceMs = append(out.advanceMs, ms(adv))
		out.resultRows += len(rows)
		busy += adv
	}
	out.recordsPerS = float64(records) / busy.Seconds()
	return out, nil
}

// convergence is the offline runtime drill's outcome.
type convergence struct {
	cold, step     int
	allocsPerEpoch float64
}

const (
	// settledAfter is how many epochs the load factors must hold still to
	// count as converged; drillCap bounds each stage of the drill.
	settledAfter = 12
	drillCap     = 160
)

// convergeDrill runs a fresh source offline over the pool: from cold
// until its load factors stop changing, then with the budget halved,
// then restored. Budgets are cost-model tokens, so the counts are exact
// for a seed. It ends by counting allocations per settled epoch.
func convergeDrill(s *spec, p *pool) (convergence, error) {
	src, err := s.newSource(1)
	if err != nil {
		return convergence{}, err
	}
	k := 0
	run := func() error {
		cb, _ := p.take(k)
		k++
		_, err := src.RunEpochColumnar(cb)
		return err
	}
	settle := func() (int, error) {
		last, prev := 0, slices.Clone(src.LoadFactors())
		for i := 1; i <= drillCap && i-last < settledAfter; i++ {
			if err := run(); err != nil {
				return 0, err
			}
			if lf := src.LoadFactors(); !slices.Equal(lf, prev) {
				last, prev = i, slices.Clone(lf)
			}
		}
		return last, nil
	}
	var c convergence
	if c.cold, err = settle(); err != nil {
		return c, err
	}
	src.SetBudget(s.budget / 2)
	down, err := settle()
	if err != nil {
		return c, err
	}
	src.SetBudget(s.budget)
	up, err := settle()
	if err != nil {
		return c, err
	}
	c.step = down + up
	const sample = 10
	m0, _ := allocs()
	for i := 0; i < sample; i++ {
		if err := run(); err != nil {
			return c, err
		}
	}
	m1, _ := allocs()
	c.allocsPerEpoch = float64(m1-m0) / sample
	return c, nil
}

// checkpointResult is the offline checkpoint and HA passes; all empty on
// workloads without a checkpoint dir.
type checkpointResult struct {
	saveMs, snapshotBytes        []float64
	applyMs                      []float64
	restoreMs, restoreAllocBytes []float64
}

// restoreRounds is how many cold restores the drill times.
const restoreRounds = 10

// checkpointDrills replays the snapshots the traced run published — saved
// again into a fresh store, applied to a fresh standby — and times cold
// SPRecovery.Restore calls on the run's final directory into fresh
// engines. The topology must still be open (its directory exists) but
// drained.
func checkpointDrills(s *spec, t *topology, scratch string) (checkpointResult, error) {
	var out checkpointResult
	if !s.ha {
		return out, nil
	}
	dir, err := os.MkdirTemp(scratch, "jarvis-benchmark-drill-*")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)

	t.repl.mu.Lock()
	snaps := t.repl.snaps
	t.repl.mu.Unlock()
	store, err := checkpoint.OpenStore(filepath.Join(dir, "save"))
	if err != nil {
		return out, err
	}
	defer store.Close()
	sproc, err := core.NewProcessor(s.query())
	if err != nil {
		return out, err
	}
	standby, err := ha.NewStandby(sproc, filepath.Join(dir, "standby"), nil)
	if err != nil {
		return out, err
	}
	defer standby.ResultLog().Close()
	defer standby.Store().Close()
	var lastID uint64
	for _, snap := range snaps {
		snap.BaseID = 0
		if snap.Delta {
			snap.BaseID = lastID
		}
		start := time.Now()
		id, err := store.Save(snap)
		if err != nil {
			return out, fmt.Errorf("save replay: %w", err)
		}
		out.saveMs = append(out.saveMs, ms(time.Since(start)))
		if fi, err := os.Stat(filepath.Join(store.Dir(), checkpoint.SnapshotFileName(id))); err == nil {
			out.snapshotBytes = append(out.snapshotBytes, float64(fi.Size()))
		}
		var enc bytes.Buffer
		if err := snap.Encode(&enc); err != nil {
			return out, err
		}
		rs := &wire.ReplSnapshot{ID: id, BaseID: snap.BaseID, Seq: snap.Seq, Term: 1, Delta: snap.Delta, Data: enc.Bytes()}
		start = time.Now()
		if err := standby.ApplySnapshot(rs); err != nil {
			return out, fmt.Errorf("apply replay: %w", err)
		}
		out.applyMs = append(out.applyMs, ms(time.Since(start)))
		lastID = id
	}

	for i := 0; i < restoreRounds; i++ {
		proc, err := core.NewProcessor(s.query())
		if err != nil {
			return out, err
		}
		final, err := checkpoint.OpenStore(filepath.Join(t.dir, "primary"))
		if err != nil {
			return out, err
		}
		rm := checkpoint.NewSPRecovery(final, nil, proc.Engine(), transport.NewReceiver(proc.Engine()), 1)
		_, b0 := allocs()
		start := time.Now()
		ok, err := rm.Restore()
		took := time.Since(start)
		_, b1 := allocs()
		_ = final.Close()
		if err != nil || !ok {
			return out, fmt.Errorf("restore drill: restored=%v err=%v", ok, err)
		}
		out.restoreMs = append(out.restoreMs, ms(took))
		out.restoreAllocBytes = append(out.restoreAllocBytes, float64(b1-b0))
	}
	return out, nil
}
