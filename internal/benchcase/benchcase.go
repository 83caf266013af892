// Package benchcase defines the canonical engine micro-benchmark
// workloads in one place: the setups behind the owner benchmarks in the
// repository root (bench_test.go, run with `go test -bench`) and behind
// the tests in other packages that pin the same frames' sizes and
// allocations, so a benchmark and the budget test next to it always see
// the same input.
package benchcase

import (
	"bytes"
	"fmt"
	"io"

	"jarvis/internal/core"
	"jarvis/internal/plan"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/transport"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
)

// PipelineEpoch builds the standard source-pipeline benchmark: S2SProbe
// with a full budget, all load factors at 1, fed one second of Pingmesh
// data at the paper's 10× rate.
func PipelineEpoch() (*stream.Pipeline, telemetry.Batch, error) {
	pipe, err := stream.NewPipeline(plan.S2SProbe(), stream.DefaultOptions(1.0, 0))
	if err != nil {
		return nil, nil, err
	}
	if err := pipe.SetLoadFactors([]float64{1, 1, 1}); err != nil {
		return nil, nil, err
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(1))
	return pipe, gen.NextWindow(1_000_000), nil
}

// EndToEnd builds the standard building-block benchmark: one adaptive
// S2SProbe source at 80% budget plus its processor, fed one second of
// Pingmesh data.
func EndToEnd() (*core.BuildingBlock, telemetry.Batch, error) {
	bb, err := core.NewBuildingBlock(plan.S2SProbe(), 1, core.SourceOptions{
		BudgetFrac: 0.8, RateMbps: 26.2, Adapt: true,
	})
	if err != nil {
		return nil, nil, err
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(5))
	return bb, gen.NextWindow(1_000_000), nil
}

// SPIngest builds the canonical SP-side ingest benchmark: an S2SProbe
// engine plus one second of Pingmesh drain, returned both as the decoded
// row batch (the parity tests' oracle input, and the payload size the
// benchmark's MB/s is over) and as the same records decoded into a
// wire-v4 SoA batch (BenchmarkSPIngestColumnar). The two carry identical
// record sequences.
func SPIngest() (*stream.SPEngine, telemetry.Batch, *wire.ColumnarBatch, error) {
	engine, err := stream.NewSPEngine(plan.S2SProbe())
	if err != nil {
		return nil, nil, nil, err
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(2))
	batch := gen.NextWindow(1_000_000)
	var buf bytes.Buffer
	fw := wire.NewFrameWriter(&buf)
	fw.SetColumnar(true)
	if err := fw.WriteFrame(wire.Frame{StreamID: 0, Source: 1, Records: batch}); err != nil {
		return nil, nil, nil, err
	}
	if err := fw.Flush(); err != nil {
		return nil, nil, nil, err
	}
	fr := wire.NewFrameReader(bytes.NewReader(buf.Bytes()))
	fr.SetColumnarExec(true)
	f, err := fr.ReadFrame()
	if err != nil {
		return nil, nil, nil, err
	}
	if f.Cols == nil {
		return nil, nil, nil, fmt.Errorf("benchcase: frame did not decode to a SoA batch")
	}
	if f.Cols.Records() != len(batch) {
		return nil, nil, nil, fmt.Errorf("benchcase: SoA decode yielded %d of %d records", f.Cols.Records(), len(batch))
	}
	return engine, batch, f.Cols, nil
}

// WarmPipeline returns the PipelineEpoch pipeline after several epochs
// of input, so its G+R stage carries realistic open-window state — the
// setup for the snapshot/restore micro-benchmarks.
func WarmPipeline(epochs int) (*stream.Pipeline, error) {
	pipe, batch, err := PipelineEpoch()
	if err != nil {
		return nil, err
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(1))
	for i := 0; i < epochs; i++ {
		pipe.RunEpoch(batch)
		batch = gen.NextWindow(1_000_000)
	}
	return pipe, nil
}

// ShippedEpoch returns one drain-heavy epoch (all load factors at zero,
// so the full raw batch ships to the SP) plus the same epoch as the
// sequenced wire-v4 stream a reconnecting agent sends — Hello, columnar
// data frames, EpochEnd — ready for Receiver.HandleConn: the input for
// the decode and replay-apply micro-benchmarks, sized like the epochs a
// recovering SP actually re-applies.
func ShippedEpoch() (stream.EpochResult, []byte, error) {
	pipe, err := stream.NewPipeline(plan.S2SProbe(), stream.DefaultOptions(1.0, 0))
	if err != nil {
		return stream.EpochResult{}, nil, err
	}
	if err := pipe.SetLoadFactors([]float64{0, 0, 0}); err != nil {
		return stream.EpochResult{}, nil, err
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(1))
	res := pipe.RunEpoch(gen.NextWindow(1_000_000))
	sh := transport.NewDurableShipper(1, 0)
	if err := sh.ShipEpoch(res); err != nil {
		return stream.EpochResult{}, nil, err
	}
	data, err := sh.ResumeBytes()
	if err != nil {
		return stream.EpochResult{}, nil, err
	}
	return res, data, nil
}

// ReplayEpoch applies one sequenced epoch stream (ShippedEpoch) to the
// engine through a fresh receiver, discarding acks — what a restarted SP
// does per epoch it catches up on. The receiver must be fresh: a reused
// one would discard the repeated sequence number as a duplicate instead
// of applying it.
func ReplayEpoch(engine *stream.SPEngine, epochStream []byte) error {
	rc := transport.NewReceiver(engine)
	rc.RegisterSource(1)
	return rc.HandleConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(epochStream), io.Discard})
}

// DrainedPingCols returns the drain a budget-starved S2SProbe agent ships
// per epoch, in the shape the repository benchmark's s2s-drain workload
// converges to: the first proxy at load factor 1/16, so 93.75 % of one
// second of generated probes leave as a SoA section narrowed by the
// drain's selection vector — the input of the wire codec's owner
// micro-benchmarks (BenchmarkWireEncodePing / BenchmarkWireDecodePing).
func DrainedPingCols() (*wire.ColumnarBatch, error) {
	pipe, err := stream.NewPipeline(plan.S2SProbe(), stream.DefaultOptions(1.0, 0))
	if err != nil {
		return nil, err
	}
	if err := pipe.SetLoadFactors([]float64{1.0 / 16, 1, 1}); err != nil {
		return nil, err
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(1))
	var cb wire.ColumnarBatch
	gen.NextWindowCols(1_000_000, &cb)
	res := pipe.RunEpochColumnar(&cb)
	if len(res.Drains) == 0 || res.Drains[0].Records() == 0 {
		return nil, fmt.Errorf("benchcase: the starved pipeline drained nothing at its first proxy")
	}
	return res.Drains[0].Clone(), nil
}

// FrameCodec returns the two halves of one wire-codec iteration over a
// SoA batch (DrainedPingCols, SpanIngest's spans), each as the transport
// runs it: encode writes the batch as one flate-compressed columnar frame
// (the shipper's encoder settings) and returns the frame bytes; decode
// reads them back to SoA sections in pooled arenas and recycles (the
// receiver's decoder).
func FrameCodec(cb *wire.ColumnarBatch) (encode func() ([]byte, error), decode func([]byte) error) {
	var buf bytes.Buffer
	fw := wire.NewFrameWriter(&buf)
	fw.SetColumnar(true)
	fw.SetCompression(true)
	encode = func() ([]byte, error) {
		buf.Reset()
		if err := fw.WriteFrame(wire.Frame{StreamID: 0, Source: 1, Cols: cb}); err != nil {
			return nil, err
		}
		return buf.Bytes(), fw.Flush()
	}
	fr := NewEpochDecoder()
	return encode, func(frame []byte) error { return DecodeEpoch(fr, frame) }
}

// PipelineEpochColumnar builds the SoA agent-epoch benchmark: the
// PipelineEpoch pipeline fed the same second of Pingmesh data as
// generated column sections (NextWindowCols is trace-identical to
// NextWindow), so BenchmarkAgentEpochColumnar and
// BenchmarkPipelineEpoch process identical record sequences on the two
// execution strategies.
func PipelineEpochColumnar() (*stream.Pipeline, *wire.ColumnarBatch, error) {
	pipe, err := stream.NewPipeline(plan.S2SProbe(), stream.DefaultOptions(1.0, 0))
	if err != nil {
		return nil, nil, err
	}
	if err := pipe.SetLoadFactors([]float64{1, 1, 1}); err != nil {
		return nil, nil, err
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(1))
	var cb wire.ColumnarBatch
	gen.NextWindowCols(1_000_000, &cb)
	return pipe, &cb, nil
}

// SpanIngest builds the TraceSpanAgg ingest benchmark pair: a span
// engine plus one second of SpanGen drain as decoded rows and as the
// identical records decoded into a wire-v4 SoA batch — the span-query
// analogue of SPIngest, so the columnar-vs-row A/B holds for the
// distributed-tracing workload too.
func SpanIngest() (*stream.SPEngine, telemetry.Batch, *wire.ColumnarBatch, error) {
	engine, err := stream.NewSPEngine(plan.TraceSpanAgg())
	if err != nil {
		return nil, nil, nil, err
	}
	gen := workload.NewSpanGen(workload.DefaultSpanConfig(2))
	batch := gen.NextWindow(1_000_000)
	var buf bytes.Buffer
	fw := wire.NewFrameWriter(&buf)
	fw.SetColumnar(true)
	if err := fw.WriteFrame(wire.Frame{StreamID: 0, Source: 1, Records: batch}); err != nil {
		return nil, nil, nil, err
	}
	if err := fw.Flush(); err != nil {
		return nil, nil, nil, err
	}
	fr := wire.NewFrameReader(bytes.NewReader(buf.Bytes()))
	fr.SetColumnarExec(true)
	f, err := fr.ReadFrame()
	if err != nil {
		return nil, nil, nil, err
	}
	if f.Cols == nil {
		return nil, nil, nil, fmt.Errorf("benchcase: span frame did not decode to a SoA batch")
	}
	if f.Cols.Records() != len(batch) {
		return nil, nil, nil, fmt.Errorf("benchcase: span SoA decode yielded %d of %d records", f.Cols.Records(), len(batch))
	}
	return engine, batch, f.Cols, nil
}

// LogEpochs is how many consecutive epochs the log micro-benchmarks
// cycle through: 20 × ~4 060 raw lines is more distinct strings than a
// decoder's canonicalization cache holds, so — as on any real stream of
// unique lines — no iteration finds its lines cached by an earlier one.
const LogEpochs = 20

// LogShippedEpochs is ShippedEpoch for the string-heavy query, in the
// shape the repository benchmark's log-adaptive workload converges to:
// LogAnalytics with the first proxy at load factor 3/16, so 81.25 % of
// each 100 ms epoch's 5 000 generated lines ship raw and the SP finishes
// the query on them; flate-compressed like the agent's default. It
// returns LogEpochs consecutive epochs, each as its own sequenced stream
// — the input of the log decode and log ingest micro-benchmarks.
func LogShippedEpochs() ([][]byte, error) {
	pipe, err := stream.NewPipeline(plan.LogAnalytics(), stream.DefaultOptions(1.0, 0))
	if err != nil {
		return nil, err
	}
	if err := pipe.SetLoadFactors([]float64{3.0 / 16, 1, 1, 1, 1, 1}); err != nil {
		return nil, err
	}
	gen := workload.NewLogGen(workload.DefaultLogConfig(1))
	epochs := make([][]byte, LogEpochs)
	for i := range epochs {
		var cb wire.ColumnarBatch
		gen.NextWindowCols(100_000, &cb)
		sh := transport.NewDurableShipper(1, 0)
		sh.SetCompression(true)
		if err := sh.ShipEpoch(pipe.RunEpochColumnar(&cb)); err != nil {
			return nil, err
		}
		if epochs[i], err = sh.ResumeBytes(); err != nil {
			return nil, err
		}
	}
	return epochs, nil
}

// StageBatch is one decoded data frame and the SP stage it enters.
type StageBatch struct {
	Stage int
	Cols  *wire.ColumnarBatch
}

// LogIngest builds the LogAnalytics SP ingest benchmark: an engine plus
// the data frames of each of LogShippedEpochs' epochs decoded to SoA, as
// the receiver hands them to SPEngine.IngestColumnar.
func LogIngest() (*stream.SPEngine, [][]StageBatch, error) {
	engine, err := stream.NewSPEngine(plan.LogAnalytics())
	if err != nil {
		return nil, nil, err
	}
	streams, err := LogShippedEpochs()
	if err != nil {
		return nil, nil, err
	}
	epochs := make([][]StageBatch, len(streams))
	for i, data := range streams {
		fr := wire.NewFrameReader(bytes.NewReader(data))
		fr.SetColumnarExec(true)
		for {
			f, err := fr.ReadFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, nil, err
			}
			if f.Cols != nil && f.StreamID != wire.ControlStreamID && f.StreamID != transport.WatermarkStreamID {
				epochs[i] = append(epochs[i], StageBatch{Stage: int(f.StreamID), Cols: f.Cols})
			}
		}
		if len(epochs[i]) == 0 {
			return nil, nil, fmt.Errorf("benchcase: log epoch %d shipped no data frames", i)
		}
	}
	return engine, epochs, nil
}

// WindowClose builds the window close of the repository benchmark's
// s2s-neardata SP: an S2SProbe engine plus what its two agents (budget
// 1.0, every load factor 1, the harness's source addresses 10.0.0.1 and
// 10.0.0.2) ship in the epoch their first 10 s window closes — one
// partial AggRow per (src, dst) pair, about 20 000 each — decoded to SoA
// as the receiver hands them to SPEngine.IngestColumnar. Both sources are
// registered at that epoch's watermark, past the window's end, so
// ingesting the batches and calling Advance merges about 40 000 groups
// and closes the window; doing both again reopens and recloses it. It
// also returns the group count one close emits.
func WindowClose() (*stream.SPEngine, []StageBatch, int, error) {
	engine, err := stream.NewSPEngine(plan.S2SProbe())
	if err != nil {
		return nil, nil, 0, err
	}
	var batches []StageBatch
	groups := 0
	for a := uint32(1); a <= 2; a++ {
		pipe, err := stream.NewPipeline(plan.S2SProbe(), stream.DefaultOptions(1.0, 0))
		if err != nil {
			return nil, nil, 0, err
		}
		if err := pipe.SetLoadFactors([]float64{1, 1, 1}); err != nil {
			return nil, nil, 0, err
		}
		cfg := workload.DefaultPingConfig(uint64(a))
		cfg.SrcIP = 0x0A000000 + a
		gen := workload.NewPingGen(cfg)
		var res stream.EpochResult
		for epoch := 0; res.Results.Records() == 0; epoch++ {
			if epoch == 20 {
				return nil, nil, 0, fmt.Errorf("benchcase: agent %d closed no window in %d one-second epochs", a, epoch)
			}
			var cb wire.ColumnarBatch
			gen.NextWindowCols(1_000_000, &cb)
			res = pipe.RunEpochColumnar(&cb)
		}
		groups += res.Results.Records()
		sh := transport.NewDurableShipper(a, 0)
		if err := sh.ShipEpoch(res); err != nil {
			return nil, nil, 0, err
		}
		data, err := sh.ResumeBytes()
		if err != nil {
			return nil, nil, 0, err
		}
		fr := wire.NewFrameReader(bytes.NewReader(data))
		fr.SetColumnarExec(true)
		for {
			f, err := fr.ReadFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, nil, 0, err
			}
			if f.Cols != nil && f.StreamID != wire.ControlStreamID && f.StreamID != transport.WatermarkStreamID {
				batches = append(batches, StageBatch{Stage: int(f.StreamID), Cols: f.Cols})
			}
		}
		engine.RegisterSource(a)
		engine.ObserveWatermark(a, res.Watermark)
	}
	return engine, batches, groups, nil
}

// NewEpochDecoder returns a frame reader set up as Receiver.HandleConn
// sets its own up: data frames decode to SoA sections in pooled arenas.
func NewEpochDecoder() *wire.FrameReader {
	fr := wire.NewFrameReader(bytes.NewReader(nil))
	fr.SetColumnarExec(true)
	fr.EnableArenaPooling()
	return fr
}

// DecodeEpoch reads every frame of one shipped epoch stream and then
// recycles the arenas, as the receiver does at the epoch's commit — one
// iteration of the receiver-decode micro-benchmarks.
func DecodeEpoch(fr *wire.FrameReader, epochStream []byte) error {
	fr.Reset(bytes.NewReader(epochStream))
	for {
		if _, err := fr.ReadFrame(); err == io.EOF {
			fr.RecycleArenas()
			return nil
		} else if err != nil {
			return err
		}
	}
}
