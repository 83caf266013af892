package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"testing"

	"jarvis/internal/benchcase"
	"jarvis/internal/checkpoint"
	"jarvis/internal/obs"
	"jarvis/internal/plan"
	"jarvis/internal/sim"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/transport"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
	"jarvis/internal/workload/spec"
)

// BenchRecord is one micro-benchmark's machine-readable result.
type BenchRecord struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	MBPerSec    float64 `json:"mb_per_sec"`
	Iterations  int     `json:"iterations"`
}

// runMicro executes the canonical engine micro-benchmarks (the exact
// setups of the repository's BenchmarkPipelineEpoch and
// BenchmarkEndToEndBuildingBlock, via internal/benchcase) and writes them
// to outPath as JSON.
func runMicro(outPath string) error {
	records := []BenchRecord{}
	pipe, rowBatch, err := benchcase.PipelineEpoch()
	if err != nil {
		return err
	}
	rp := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pipe.RunEpoch(rowBatch)
		}
	})
	records = append(records, record("BenchmarkPipelineEpoch", rowBatch.TotalBytes(), rp))

	pipeCol, cbCol, err := benchcase.PipelineEpochColumnar()
	if err != nil {
		return err
	}
	rc := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pipeCol.RunEpochColumnar(cbCol)
		}
	})
	records = append(records, record("BenchmarkAgentEpochColumnar", cbCol.TotalBytes(), rc))

	bb, batch, err := benchcase.EndToEnd()
	if err != nil {
		return err
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bb.RunEpoch([]telemetry.Batch{batch}); err != nil {
				b.Fatal(err)
			}
		}
	})
	records = append(records, record("BenchmarkEndToEndBuildingBlock", batch.TotalBytes(), r))

	ingest, err := spIngestBenchmarks()
	if err != nil {
		return err
	}
	records = append(records, ingest...)

	ckpt, err := checkpointBenchmarks()
	if err != nil {
		return err
	}
	records = append(records, ckpt...)

	haRecs, err := haBenchmarks()
	if err != nil {
		return err
	}
	records = append(records, haRecs...)

	obsRecs, err := obsOverheadRecords()
	if err != nil {
		return err
	}
	records = append(records, obsRecs...)

	admRecs, err := admissionBenchmarks()
	if err != nil {
		return err
	}
	records = append(records, admRecs...)

	simRecs, err := clusterSimRecords()
	if err != nil {
		return err
	}
	records = append(records, simRecs...)

	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	for _, r := range records {
		fmt.Printf("%-32s %12.0f ns/op %10d B/op %8d allocs/op %8.1f MB/s\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.MBPerSec)
	}
	fmt.Println("wrote", outPath)
	return nil
}

// spIngestBenchmarks measures the SP-side ingest of one epoch-scale
// drain through the full S2SProbe plan, as a row batch (Ingest: one Rows
// section through the operators' row routines) and as SoA sections
// (IngestColumnar: the kernels) — the PR 5 headline A/B (identical
// record sequences, see benchcase.SPIngest).
func spIngestBenchmarks() ([]BenchRecord, error) {
	records := []BenchRecord{}

	rowEngine, batch, _, err := benchcase.SPIngest()
	if err != nil {
		return nil, err
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := rowEngine.Ingest(0, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	records = append(records, record("BenchmarkSPIngest", batch.TotalBytes(), r))

	colEngine, _, cb, err := benchcase.SPIngest()
	if err != nil {
		return nil, err
	}
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := colEngine.IngestColumnar(0, cb); err != nil {
				b.Fatal(err)
			}
		}
	})
	records = append(records, record("BenchmarkSPIngestColumnar", batch.TotalBytes(), r))

	// The same A/B on the distributed-tracing workload: TraceSpanAgg over
	// one second of SpanGen drain, rows vs identical records as SoA.
	rowSpan, spanBatch, _, err := benchcase.SpanIngest()
	if err != nil {
		return nil, err
	}
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := rowSpan.Ingest(0, spanBatch); err != nil {
				b.Fatal(err)
			}
		}
	})
	records = append(records, record("BenchmarkSPIngestSpans", spanBatch.TotalBytes(), r))

	colSpan, _, spanCB, err := benchcase.SpanIngest()
	if err != nil {
		return nil, err
	}
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := colSpan.IngestColumnar(0, spanCB); err != nil {
				b.Fatal(err)
			}
		}
	})
	records = append(records, record("BenchmarkSPIngestSpansColumnar", spanBatch.TotalBytes(), r))

	// The string path: LogAnalytics epochs shipped 81 % raw (the
	// log-adaptive shape), each decoded as the receiver decodes it and
	// ingested as the receiver ingests it, cycling through
	// benchcase.LogEpochs consecutive epochs. With BenchmarkPipelineEpochLog (the agent
	// side) these are the owner records of the three layers a log line
	// crosses.
	logEngine, logEpochs, err := benchcase.LogIngest()
	if err != nil {
		return nil, err
	}
	var logBytes int64
	for _, f := range logEpochs[0] {
		logBytes += f.Cols.TotalBytes()
	}
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, f := range logEpochs[i%len(logEpochs)] {
				if err := logEngine.IngestColumnar(f.Stage, f.Cols); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	records = append(records, record("BenchmarkSPIngestLogColumnar", logBytes, r))

	logStreams, err := benchcase.LogShippedEpochs()
	if err != nil {
		return nil, err
	}
	fr := benchcase.NewEpochDecoder()
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := benchcase.DecodeEpoch(fr, logStreams[i%len(logStreams)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	records = append(records, record("BenchmarkReceiverDecodeLog", int64(len(logStreams[0])), r))
	return records, nil
}

// clusterSimRecords measures the cluster simulator's wall-clock
// throughput: a 500-node four-workload spec run to completion on the
// shared virtual clock. NsPerOp carries node-epochs per wall second;
// the speedup record is virtual seconds per wall second.
func clusterSimRecords() ([]BenchRecord, error) {
	doc := []byte(`{
  "name": "bench-500",
  "seed": 17,
  "epochs": 3,
  "groups": [
    {"name": "ping", "query": "s2s", "nodes": 200, "rate_mbps": 0.02},
    {"name": "tor", "query": "t2t", "nodes": 100, "rate_mbps": 0.02},
    {"name": "logs", "query": "log", "nodes": 100, "rate_mbps": 0.02},
    {"name": "traces", "query": "spans", "nodes": 100, "rate_mbps": 0.02}
  ]
}`)
	s, err := spec.Parse(doc)
	if err != nil {
		return nil, err
	}
	sc, err := s.Compile()
	if err != nil {
		return nil, err
	}
	c, err := sim.NewCluster(sim.ClusterConfig{Scenario: sc})
	if err != nil {
		return nil, err
	}
	res, err := c.Run()
	if err != nil {
		return nil, err
	}
	return []BenchRecord{
		{
			Name:       "ClusterSimNodeEpochsPerSec@500x4q",
			NsPerOp:    res.NodeEpochsPerSec,
			Iterations: res.Nodes,
		},
		{
			Name:       "ClusterSimVirtualSpeedup@500x4q",
			NsPerOp:    res.VirtualSeconds / res.WallSeconds,
			Iterations: res.Epochs,
		},
	}, nil
}

// checkpointBenchmarks measures the fault-tolerance subsystem's hot
// paths: the full per-epoch durable snapshot (what -checkpoint-every 1
// costs on top of an epoch — the ≤5%-of-epoch-time budget), the restore
// path, and applying one replayed epoch on the SP.
func checkpointBenchmarks() ([]BenchRecord, error) {
	records := []BenchRecord{}

	// Snapshot: Pipeline.Checkpoint + encode + atomic durable save, the
	// exact work AgentRecovery.AfterEpoch does each cadence.
	pipe, err := benchcase.WarmPipeline(3)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "jarvis-bench-ckpt-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := checkpoint.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	var snapBytes int64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cp := pipe.Checkpoint(int64(i))
			snap := &checkpoint.Snapshot{
				Seq:       uint64(i),
				Watermark: cp.Watermark,
				Stages:    cp.Stages,
				Factors:   pipe.LoadFactors(),
			}
			if _, err := store.Save(snap); err != nil {
				b.Fatal(err)
			}
			if snapBytes == 0 {
				var buf bytes.Buffer
				_ = snap.Encode(&buf)
				snapBytes = int64(buf.Len())
			}
		}
	})
	saveRec := record("BenchmarkCheckpointSave", snapBytes, r)
	records = append(records, saveRec)
	// The per-epoch snapshot overhead at the default cadence — the number
	// the ≤5%-of-epoch-time budget is checked against.
	records = append(records, BenchRecord{
		Name:       fmt.Sprintf("BenchmarkCheckpointSavePerEpoch@every=%d", checkpoint.DefaultEvery),
		NsPerOp:    saveRec.NsPerOp / float64(checkpoint.DefaultEvery),
		Iterations: saveRec.Iterations,
	})

	// Restore: decode the newest snapshot and fold it into a pipeline.
	snap, ok, err := store.Latest()
	if err != nil || !ok {
		return nil, fmt.Errorf("no snapshot to restore (err=%v)", err)
	}
	var enc bytes.Buffer
	if err := snap.Encode(&enc); err != nil {
		return nil, err
	}
	fresh, err := stream.NewPipeline(plan.S2SProbe(), stream.DefaultOptions(1.0, 0))
	if err != nil {
		return nil, err
	}
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := checkpoint.DecodeSnapshot(bytes.NewReader(enc.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			cp := &stream.Checkpoint{Epoch: int64(got.Seq), Watermark: got.Watermark, Stages: got.Stages}
			if err := fresh.RestoreCheckpoint(cp); err != nil {
				b.Fatal(err)
			}
		}
	})
	records = append(records, record("BenchmarkCheckpointRestore", int64(enc.Len()), r))

	// Replay: apply one encoded epoch to an SP engine through the
	// receiver (the per-epoch cost of catching up after a restart).
	_, epochBytes, err := benchcase.ShippedEpoch()
	if err != nil {
		return nil, err
	}
	engine, err := stream.NewSPEngine(plan.S2SProbe())
	if err != nil {
		return nil, err
	}
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := replayEpoch(engine, epochBytes); err != nil {
				b.Fatal(err)
			}
		}
	})
	records = append(records, record("BenchmarkEpochReplay", int64(len(epochBytes)), r))

	// Decode only: the wire-level cost of materializing one shipped
	// epoch's frames, isolated from operator ingest.
	fr := wire.NewFrameReader(bytes.NewReader(epochBytes))
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fr.Reset(bytes.NewReader(epochBytes))
			for {
				_, err := fr.ReadFrame()
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	records = append(records, record("BenchmarkReceiverDecode", int64(len(epochBytes)), r))

	// The wire codec alone, both directions and flate included: on the
	// drain a budget-starved S2SProbe agent ships (the s2s-drain shape,
	// integer columns only) and on the span frame spans-ha ships (the one
	// with a float column); MB/s is over the logical payload, not the wire
	// bytes.
	pingCols, err := benchcase.DrainedPingCols()
	if err != nil {
		return nil, err
	}
	_, _, spanCols, err := benchcase.SpanIngest()
	if err != nil {
		return nil, err
	}
	for _, c := range []struct {
		name string
		cols *wire.ColumnarBatch
	}{{"Ping", pingCols}, {"Spans", spanCols}} {
		encode, decode := benchcase.FrameCodec(c.cols)
		r = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := encode(); err != nil {
					b.Fatal(err)
				}
			}
		})
		records = append(records, record("BenchmarkWireEncode"+c.name, c.cols.TotalBytes(), r))
		frame, err := encode()
		if err != nil {
			return nil, err
		}
		r = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := decode(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
		records = append(records, record("BenchmarkWireDecode"+c.name, c.cols.TotalBytes(), r))
	}

	delta, err := deltaSnapshotBenchmark()
	if err != nil {
		return nil, err
	}
	records = append(records, delta...)
	return records, nil
}

// deltaSnapshotBenchmark measures what `-checkpoint-every 1` costs per
// epoch with incremental snapshots, on the workload every-epoch
// checkpointing is designed for: an aggregation-heavy query whose
// epochs fold tens of thousands of records into a few thousand hot
// groups (LogAnalytics — ~47k lines/epoch into ~2k (tenant, stat,
// bucket) groups). After each pipeline epoch, only the dirtied groups
// are captured and saved as a delta chained onto the previous snapshot;
// just the capture+save is timed. The companion record
// BenchmarkPipelineEpochLog is the same query's epoch cost, and
// DeltaSnapshotOverhead@every=1 is their ratio — the ROADMAP bound is
// ≤ 5%. (Probe queries, where nearly every record opens or touches a
// distinct group, keep the default 32-epoch cadence: for them a delta
// is almost the full state, see BenchmarkCheckpointSave.)
func deltaSnapshotBenchmark() ([]BenchRecord, error) {
	pipe, err := stream.NewPipeline(plan.LogAnalytics(), stream.DefaultOptions(4.0, 0))
	if err != nil {
		return nil, err
	}
	ones := make([]float64, len(pipe.Query().Ops))
	for i := range ones {
		ones[i] = 1
	}
	if err := pipe.SetLoadFactors(ones); err != nil {
		return nil, err
	}
	gen := workload.NewLogGen(workload.DefaultLogConfig(1))
	var epochBatch telemetry.Batch
	for i := 0; i < 3; i++ {
		epochBatch = gen.NextWindow(1_000_000)
		pipe.RunEpoch(epochBatch)
	}

	// The same query's epoch cost, the denominator of the overhead bound.
	// Workload generation runs outside the timer, matching
	// BenchmarkPipelineEpoch's convention of timing RunEpoch alone.
	re := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			in := gen.NextWindow(1_000_000)
			b.StartTimer()
			pipe.RunEpoch(in)
		}
	})
	epochRec := record("BenchmarkPipelineEpochLog", epochBatch.TotalBytes(), re)

	var store *checkpoint.Store
	var lastID uint64
	var deltaBytes int64
	newStore := func() error {
		dir, err := os.MkdirTemp("", "jarvis-bench-delta-*")
		if err != nil {
			return err
		}
		store, err = checkpoint.OpenStore(dir)
		if err != nil {
			return err
		}
		cp := pipe.Checkpoint(0)
		pipe.MarkSnapshotClean()
		lastID, err = store.Save(&checkpoint.Snapshot{Seq: 0, Watermark: cp.Watermark, Stages: cp.Stages})
		return err
	}
	if err := newStore(); err != nil {
		return nil, err
	}
	defer func() {
		_ = store.Close()
		_ = os.RemoveAll(store.Dir())
	}()
	epoch := uint64(0)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if i%64 == 0 && i > 0 {
				// Bound the store directory: start a fresh chain so the
				// benchmark's disk footprint stays flat.
				old, oldDir := store, store.Dir()
				if err := newStore(); err != nil {
					b.Fatal(err)
				}
				_ = old.Close()
				_ = os.RemoveAll(oldDir)
			}
			pipe.RunEpoch(gen.NextWindow(1_000_000))
			epoch++
			b.StartTimer()
			cp := pipe.CheckpointDelta(int64(epoch))
			snap := &checkpoint.Snapshot{
				Seq: epoch, Watermark: cp.Watermark, Stages: cp.Stages,
				Factors: pipe.LoadFactors(),
				Delta:   true, BaseID: lastID, Meta: cp.Meta,
			}
			id, err := store.Save(snap)
			if err != nil {
				b.Fatal(err)
			}
			lastID = id
			if deltaBytes == 0 {
				var buf bytes.Buffer
				_ = snap.Encode(&buf)
				deltaBytes = int64(buf.Len())
			}
		}
	})
	saveRec := record("BenchmarkDeltaSnapshotSave", deltaBytes, r)
	ratio := BenchRecord{
		Name:       "DeltaSnapshotOverhead@every=1",
		NsPerOp:    100 * saveRec.NsPerOp / epochRec.NsPerOp, // percent of the query's epoch
		Iterations: saveRec.Iterations,
	}
	return []BenchRecord{epochRec, saveRec, ratio}, nil
}

// obsOverheadRecords quantifies the observability tax on the hottest
// instrumented loop: warm columnar SP ingest with epoch-lifecycle
// timing on vs. off (obs.SetEnabled(false), what -obs-off selects
// process-wide). Min-of-3 on each side filters scheduler noise; the
// budget is <=3% and ObsOverheadPct lands in the bench JSON so CI can
// watch it. NsPerOp carries the percentage, not a duration.
func obsOverheadRecords() ([]BenchRecord, error) {
	wasEnabled := obs.Enabled()
	defer obs.SetEnabled(wasEnabled)
	run := func() (float64, error) {
		engine, _, cb, err := benchcase.SPIngest()
		if err != nil {
			return 0, err
		}
		best := math.Inf(1)
		for t := 0; t < 3; t++ {
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := engine.IngestColumnar(0, cb); err != nil {
						b.Fatal(err)
					}
				}
			})
			if ns := float64(r.T.Nanoseconds()) / float64(r.N); ns < best {
				best = ns
			}
		}
		return best, nil
	}
	obs.SetEnabled(true)
	on, err := run()
	if err != nil {
		return nil, err
	}
	obs.SetEnabled(false)
	off, err := run()
	if err != nil {
		return nil, err
	}
	return []BenchRecord{{
		Name:    "ObsOverheadPct",
		NsPerOp: 100 * (on - off) / off,
	}}, nil
}

// replayEpoch applies one sequenced epoch stream (benchcase.ShippedEpoch)
// to the engine through a fresh receiver, discarding acks. The receiver
// must be fresh: a reused one would discard the repeated sequence number
// as a duplicate instead of applying it.
func replayEpoch(engine *stream.SPEngine, epochStream []byte) error {
	rc := transport.NewReceiver(engine)
	rc.RegisterSource(1)
	return rc.HandleConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(epochStream), io.Discard})
}

func record(name string, totalBytes int64, r testing.BenchmarkResult) BenchRecord {
	nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
	mbps := 0.0
	if nsPerOp > 0 {
		mbps = float64(totalBytes) / nsPerOp * 1e9 / 1e6
	}
	return BenchRecord{
		Name:        name,
		NsPerOp:     nsPerOp,
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		MBPerSec:    mbps,
		Iterations:  r.N,
	}
}
