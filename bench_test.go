// Benchmarks regenerating every table and figure of the paper's
// evaluation (§VI) plus the ablations DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Each figure bench executes its full experiment per iteration, so
// ns/op is the cost of regenerating that artifact; the experiment's
// assertions live in internal/experiments tests.
package jarvis_test

import (
	"testing"

	"jarvis"
	"jarvis/internal/benchcase"
	"jarvis/internal/experiments"
	"jarvis/internal/lp"
	"jarvis/internal/partition"
	"jarvis/internal/plan"
	"jarvis/internal/runtime"
	"jarvis/internal/sim"
	"jarvis/internal/workload"
)

// --- Fig. 3: operator-level vs data-level illustration ---

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 7: throughput vs CPU budget, three queries ---

func benchFig7(b *testing.B, name string) {
	q, rate, err := experiments.QueryByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(name, q, rate); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7a_S2SProbe(b *testing.B)     { benchFig7(b, "s2s") }
func BenchmarkFig7b_T2TProbe(b *testing.B)     { benchFig7(b, "t2t") }
func BenchmarkFig7c_LogAnalytics(b *testing.B) { benchFig7(b, "log") }

// --- Fig. 8: convergence traces ---

func BenchmarkFig8a_S2SProbe(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8S2S(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8b_T2TProbe(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8T2T(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8c_LogAnalytics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8Log(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 9: data synopsis comparison ---

func BenchmarkFig9a_SamplingErrorCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(uint64(i) + 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9b_TransferVsRate(b *testing.B) {
	// The transfer panel shares Fig9's computation; this bench isolates
	// the Jarvis-side transfer points.
	sc := partition.Scenario{
		Query: plan.S2SProbe(), RateMbps: workload.PingmeshMbps10x,
		BandwidthMbps: experiments.PerSourceBWMbps,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, budget := range []float64{1.0, 0.2} {
			sc.BudgetFrac = budget
			if _, _, err := partition.EvaluateStrategy(partition.Jarvis, sc); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Fig. 10: multi-source scaling ---

func benchFig10(b *testing.B, idx int) {
	set := experiments.Fig10Settings[idx]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(set); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10a_10x(b *testing.B) { benchFig10(b, 0) }
func BenchmarkFig10b_5x(b *testing.B)  { benchFig10(b, 1) }
func BenchmarkFig10c_1x(b *testing.B)  { benchFig10(b, 2) }

// --- Fig. 11: multiple queries per node ---

func benchFig11(b *testing.B, idx int) {
	set := experiments.Fig11Settings[idx]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(set); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11a_10x(b *testing.B) { benchFig11(b, 0) }
func BenchmarkFig11b_5x(b *testing.B)  { benchFig11(b, 1) }
func BenchmarkFig11c_1x(b *testing.B)  { benchFig11(b, 2) }

// --- §VI-E latency table ---

func BenchmarkLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Latency(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §VI-C operator-count convergence sweep ---

func BenchmarkOpCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.OpCount(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §VI-B runtime overhead ---

func BenchmarkRuntimeOverhead(b *testing.B) {
	est := runtime.Estimates{
		CostPct:   []float64{1, 13, 71},
		Relay:     []float64{1, 0.86, 0.30},
		BudgetPct: 60,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := runtime.LPInit(est, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md) ---

// convergenceUnder measures closed-loop epochs to stability in the
// simulator for a runtime configuration.
func convergenceUnder(b *testing.B, cfg runtime.Config) int {
	node, err := sim.NewNode(sim.DefaultNodeConfig(plan.S2SProbe(), workload.PingmeshMbps10x, 0.60))
	if err != nil {
		b.Fatal(err)
	}
	trace, err := sim.Run(node, cfg, 40, nil)
	if err != nil {
		b.Fatal(err)
	}
	c := trace.ConvergenceEpochs(0, 3)
	if c < 0 {
		c = 40
	}
	return c
}

func BenchmarkAblationFineTune(b *testing.B) {
	b.Run("binary-search", func(b *testing.B) {
		total := 0
		for i := 0; i < b.N; i++ {
			total += convergenceUnder(b, runtime.NoLPInit())
		}
		b.ReportMetric(float64(total)/float64(b.N), "epochs/op")
	})
	b.Run("linear-stepping", func(b *testing.B) {
		cfg := runtime.NoLPInit()
		cfg.LinearStepping = true
		total := 0
		for i := 0; i < b.N; i++ {
			total += convergenceUnder(b, cfg)
		}
		b.ReportMetric(float64(total)/float64(b.N), "epochs/op")
	})
}

func BenchmarkAblationPriority(b *testing.B) {
	b.Run("relay-only", func(b *testing.B) {
		total := 0
		for i := 0; i < b.N; i++ {
			total += convergenceUnder(b, runtime.NoLPInit())
		}
		b.ReportMetric(float64(total)/float64(b.N), "epochs/op")
	})
	b.Run("cost-relay", func(b *testing.B) {
		cfg := runtime.NoLPInit()
		cfg.PriorityByCostRelay = true
		total := 0
		for i := 0; i < b.N; i++ {
			total += convergenceUnder(b, cfg)
		}
		b.ReportMetric(float64(total)/float64(b.N), "epochs/op")
	})
}

func BenchmarkAblationThresholds(b *testing.B) {
	for _, tc := range []struct {
		name                    string
		drainedThres, idleThres float64
	}{
		{"paper-0.10-0.20", 0.10, 0.20},
		{"tight-0.01-0.02", 0.01, 0.02},
		{"loose-0.30-0.50", 0.30, 0.50},
	} {
		b.Run(tc.name, func(b *testing.B) {
			adaptations := 0
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultNodeConfig(plan.S2SProbe(), workload.PingmeshMbps10x, 0.60)
				cfg.DrainedThres = tc.drainedThres
				cfg.IdleThres = tc.idleThres
				node, err := sim.NewNode(cfg)
				if err != nil {
					b.Fatal(err)
				}
				trace, err := sim.Run(node, runtime.Defaults(), 60, nil)
				if err != nil {
					b.Fatal(err)
				}
				for _, e := range trace {
					if e.Profiled {
						adaptations++
					}
				}
			}
			b.ReportMetric(float64(adaptations)/float64(b.N), "profiles/op")
		})
	}
}

func BenchmarkLPSolvers(b *testing.B) {
	cp := lp.ChainProblem{
		R:      []float64{1, 0.86, 0.30},
		C:      []float64{0.01, 0.13, 0.71 / 0.86},
		Budget: 0.6,
	}
	b.Run("chain-greedy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lp.SolveChain(cp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("general-simplex", func(b *testing.B) {
		p := cp.ToProblem()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := lp.Solve(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Engine micro-benchmarks ---

func benchPipelineEpoch(b *testing.B, recycle bool) {
	pipe, batch, err := benchcase.PipelineEpoch()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(batch.TotalBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := pipe.RunEpoch(batch)
		if recycle {
			res.Recycle()
		}
	}
}

// BenchmarkPipelineEpoch measures an epoch over a row batch — RunEpoch
// presenting the rows to the wave loop as one Rows section (the
// canonical setup lives in internal/benchcase, shared with jarvis-bench
// -exp micro). The Recycled variant additionally returns epoch buffers
// to the pool, as the in-process Processor does.
func BenchmarkPipelineEpoch(b *testing.B)         { benchPipelineEpoch(b, false) }
func BenchmarkPipelineEpochRecycled(b *testing.B) { benchPipelineEpoch(b, true) }

// BenchmarkAgentEpochColumnar measures the agent-side SoA epoch: the
// generator's column sections flow through RunEpochColumnar with no
// record materialization — the columnar counterpart of
// BenchmarkPipelineEpoch over the identical trace.
func BenchmarkAgentEpochColumnar(b *testing.B) {
	pipe, cb, err := benchcase.PipelineEpochColumnar()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(cb.TotalBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.RunEpochColumnar(cb)
	}
}

// BenchmarkSPIngest measures the row-path SP ingest (the canonical setup
// lives in internal/benchcase, shared with jarvis-bench -exp micro);
// BenchmarkSPIngestColumnar drives the identical record sequence through
// the SoA path — decoded columns flow through Window, Filter and
// GroupAgg with zero record materialization.
func BenchmarkSPIngest(b *testing.B) {
	engine, batch, _, err := benchcase.SPIngest()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(batch.TotalBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := engine.Ingest(0, batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSPIngestColumnar(b *testing.B) {
	engine, batch, cb, err := benchcase.SPIngest()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(batch.TotalBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := engine.IngestColumnar(0, cb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSPIngestLogColumnar and BenchmarkReceiverDecodeLog are the SP
// ingest and the receiver-side decode of one LogAnalytics epoch shipped
// 81 % raw (benchcase.LogShippedEpochs — the log-adaptive shape), cycling
// through consecutive epochs: the string path's owner records next to
// BenchmarkPipelineEpochLog.
func BenchmarkSPIngestLogColumnar(b *testing.B) {
	engine, epochs, err := benchcase.LogIngest()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range epochs[i%len(epochs)] {
			if err := engine.IngestColumnar(f.Stage, f.Cols); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkReceiverDecodeLog(b *testing.B) {
	epochs, err := benchcase.LogShippedEpochs()
	if err != nil {
		b.Fatal(err)
	}
	fr := benchcase.NewEpochDecoder()
	b.SetBytes(int64(len(epochs[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := benchcase.DecodeEpoch(fr, epochs[i%len(epochs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireEncodePing and BenchmarkWireDecodePing are the wire
// codec's owner records on the drain the s2s-drain workload ships
// (benchcase.DrainedPingCols): one epoch's raw probes to a
// flate-compressed columnar frame and back to SoA sections. MB/s is over
// the logical payload (PingProbeWireSize per probe), not the wire bytes,
// so a denser encoding does not read as a slower one.
func BenchmarkWireEncodePing(b *testing.B) {
	cb, err := benchcase.DrainedPingCols()
	if err != nil {
		b.Fatal(err)
	}
	encode, _ := benchcase.FrameCodec(cb)
	b.SetBytes(cb.TotalBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireDecodePing(b *testing.B) {
	cb, err := benchcase.DrainedPingCols()
	if err != nil {
		b.Fatal(err)
	}
	encode, decode := benchcase.FrameCodec(cb)
	frame, err := encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(cb.TotalBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireEncodeSpans and BenchmarkWireDecodeSpans are the same
// owner records on the frame the spans-ha workload ships
// (benchcase.SpanIngest's 47 620 spans): the one canonical frame with a
// float column, so the byte-plane codec and the stored region show here.
func BenchmarkWireEncodeSpans(b *testing.B) {
	_, _, cb, err := benchcase.SpanIngest()
	if err != nil {
		b.Fatal(err)
	}
	encode, _ := benchcase.FrameCodec(cb)
	b.SetBytes(cb.TotalBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireDecodeSpans(b *testing.B) {
	_, _, cb, err := benchcase.SpanIngest()
	if err != nil {
		b.Fatal(err)
	}
	encode, decode := benchcase.FrameCodec(cb)
	frame, err := encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(cb.TotalBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimEpoch(b *testing.B) {
	node, err := sim.NewNode(sim.DefaultNodeConfig(plan.S2SProbe(), workload.PingmeshMbps10x, 0.6))
	if err != nil {
		b.Fatal(err)
	}
	_ = node.SetFactors([]float64{1, 1, 0.5})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		node.RunEpoch()
	}
}

func BenchmarkEndToEndBuildingBlock(b *testing.B) {
	bb, batch, err := benchcase.EndToEnd()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(batch.TotalBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bb.RunEpoch([]jarvis.Batch{batch}); err != nil {
			b.Fatal(err)
		}
	}
}
