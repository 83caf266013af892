// Benchmarks regenerating every table and figure of the paper's
// evaluation (§VI) plus the ablations DESIGN.md calls out, and — below
// "Engine micro-benchmarks" — the owner benchmark of every engine layer.
// Run with
//
//	go test -run '^$' -bench . -benchmem
//
// This file is the repository's only micro harness: -count, -cpu,
// -cpuprofile and benchstat apply as to any Go benchmark, and
// scripts/bench-pair.sh --owner alternates a base commit's build of it
// with the working tree's. Each figure bench executes its full
// experiment per iteration, so ns/op is the cost of regenerating that
// artifact; the experiment's assertions live in internal/experiments
// tests.
package jarvis_test

import (
	"bytes"
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"jarvis"
	"jarvis/internal/admission"
	"jarvis/internal/benchcase"
	"jarvis/internal/checkpoint"
	"jarvis/internal/core"
	"jarvis/internal/experiments"
	"jarvis/internal/ha"
	"jarvis/internal/lp"
	"jarvis/internal/operator"
	"jarvis/internal/partition"
	"jarvis/internal/plan"
	"jarvis/internal/runtime"
	"jarvis/internal/sim"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
	"jarvis/internal/workload/spec"
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
//
// One benchmark per layer, over the canonical setups of
// internal/benchcase; MB/s is over the logical payload each comment
// names. They time deployed paths only: the Rows fallback of a query
// whose every stage has a kernel (the parity suites' oracle) has no
// benchmark, except BenchmarkPipelineEpoch below.

// ownerBenchmarks are the benchmark names that README "Benchmarks",
// docs/ARCHITECTURE.md "Performance discipline", ROADMAP item 1's
// acceptance and `bench-pair.sh --owner` examples refer to.
var ownerBenchmarks = []string{
	"BenchmarkPipelineEpoch",
	"BenchmarkAgentEpochColumnar",
	"BenchmarkEndToEndBuildingBlock",
	"BenchmarkSPIngestColumnar",
	"BenchmarkSPIngestSpansColumnar",
	"BenchmarkSPIngestLogColumnar",
	"BenchmarkWindowClose",
	"BenchmarkGroupProbe",
	"BenchmarkReceiverDecode",
	"BenchmarkReceiverDecodeLog",
	"BenchmarkWireEncodePing",
	"BenchmarkWireDecodePing",
	"BenchmarkWireEncodeSpans",
	"BenchmarkWireDecodeSpans",
	"BenchmarkCheckpointSave",
	"BenchmarkCheckpointRestore",
	"BenchmarkDeltaSnapshotSave",
	"BenchmarkEpochReplay",
	"BenchmarkReplicationApply",
	"BenchmarkReplicationPublish",
	"BenchmarkAdmissionAdmit",
	"BenchmarkClusterSim500",
}

// TestOwnerBenchmarkNames fails when a name above no longer has a
// `func Benchmark…` in this package, so a rename or deletion cannot
// silently orphan a document or an acceptance criterion. The
// declarations are found by parsing the package's test files: the
// testing package does not list benchmarks at run time.
func TestOwnerBenchmarkNames(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			if !strings.HasSuffix(name, "_test.go") {
				continue
			}
			for _, d := range file.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
					declared[fn.Name.Name] = true
				}
			}
		}
	}
	for _, name := range ownerBenchmarks {
		if !declared[name] {
			t.Errorf("owner benchmark %s is referenced by docs/ROADMAP but not declared in the root package's _test.go files", name)
		}
	}
}

// benchWarm times op after one untimed call. Every `go test -bench`
// trial rebuilds its setup, and the first call on fresh state — opening
// a window's groups, growing an encoder's buffers — is not the steady
// state these benchmarks report; amortized over b.N it would make B/op
// and allocs/op depend on the iteration count.
func benchWarm(b *testing.B, op func() error) {
	b.Helper()
	if err := op(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineEpoch measures an epoch over a row batch — RunEpoch
// presenting the rows to the wave loop as one Rows section. It is the
// one row-entry benchmark kept: the in-process building block
// (core.Source.RunEpoch under jarvis.BuildingBlock) is a production
// caller of it.
func BenchmarkPipelineEpoch(b *testing.B) {
	pipe, batch, err := benchcase.PipelineEpoch()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(batch.TotalBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.RunEpoch(batch)
	}
}

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

// BenchmarkSPIngestColumnar measures the SP-side ingest of one
// epoch-scale Pingmesh drain through the full S2SProbe plan: decoded
// columns flow through Window, Filter and GroupAgg with zero record
// materialization. BenchmarkSPIngestSpansColumnar is the same on the
// distributed-tracing workload: TraceSpanAgg over one second of SpanGen
// drain. MB/s is over the records' row-form payload.
func BenchmarkSPIngestColumnar(b *testing.B) {
	benchIngestColumnar(b, benchcase.SPIngest)
}

func BenchmarkSPIngestSpansColumnar(b *testing.B) {
	benchIngestColumnar(b, benchcase.SpanIngest)
}

func benchIngestColumnar(b *testing.B, setup func() (*stream.SPEngine, jarvis.Batch, *wire.ColumnarBatch, error)) {
	engine, batch, cb, err := setup()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(batch.TotalBytes())
	benchWarm(b, func() error { return engine.IngestColumnar(0, cb) })
}

// BenchmarkWindowClose is the SP's window close on s2s-neardata
// (benchcase.WindowClose): two agents' partial AggRow sections for one
// 10 s window — about 40 000 groups — merged, then the Advance that
// flushes the window in key order through the rest of the plan. Setup
// and the untimed first close stay out of the loop, so the window's
// table is presized from a previous close as in production. MB/s is
// over the sections' logical column bytes.
func BenchmarkWindowClose(b *testing.B) {
	engine, batches, groups, err := benchcase.WindowClose()
	if err != nil {
		b.Fatal(err)
	}
	var colBytes int64
	for _, f := range batches {
		colBytes += f.Cols.TotalBytes()
	}
	b.SetBytes(colBytes)
	benchWarm(b, func() error {
		for _, f := range batches {
			if err := engine.IngestColumnar(f.Stage, f.Cols); err != nil {
				return err
			}
		}
		if n := len(engine.Advance()); n != groups {
			return fmt.Errorf("window close emitted %d rows, want %d", n, groups)
		}
		return nil
	})
}

// BenchmarkGroupProbe is the numeric group probe on its own: 20 000
// packed (src, dst) keys — one Pingmesh agent's peers — each observed
// twice into one open window through GroupAgg's ping kernel, as one
// 40 000-row section. The untimed first call opens the groups, so the
// loop times lookups only. /roundrobin sends the keys in the order they
// were inserted, like an agent probing its peers in turn; /shuffled in
// a fixed random order, where an order-dependent shortcut cannot help.
func BenchmarkGroupProbe(b *testing.B) {
	const peers = 20_000
	order := make([]int, 2*peers)
	for i := range order {
		order[i] = i % peers
	}
	for _, bc := range []struct {
		name  string
		order []int
	}{{"roundrobin", order}, {"shuffled", rand.New(rand.NewPCG(1, 2)).Perm(2 * peers)}} {
		b.Run(bc.name, func(b *testing.B) {
			c := &wire.PingCols{}
			sec := wire.ColSec{Tag: wire.TagPingProbe, Ping: c}
			for i, peer := range bc.order {
				peer %= peers
				sec.Times = append(sec.Times, int64(i))
				sec.Windows = append(sec.Windows, 0)
				c.TS = append(c.TS, int64(i))
				c.SrcIP = append(c.SrcIP, 0x0A000001)
				c.SrcCluster = append(c.SrcCluster, 0x0A00)
				c.DstIP = append(c.DstIP, 0x0B000000+uint32(peer))
				c.DstCluster = append(c.DstCluster, 0x0B00)
				c.RTT = append(c.RTT, uint32(400+i%997))
				c.Err = append(c.Err, 0)
			}
			g := operator.NewGroupAgg("latAgg", 10_000_000, operator.ProbePairKey, operator.ProbeRTT)
			g.SetAggKernel(operator.AggKernelPingPairRTT)
			secs := make([]wire.ColSec, 1)
			b.SetBytes(int64(2*peers) * telemetry.PingProbeWireSize)
			benchWarm(b, func() error {
				secs[0] = sec
				g.ProcessColumnar(&wire.ColumnarBatch{Secs: secs})
				if n := g.GroupCount(0); n != peers {
					return fmt.Errorf("%d groups, want %d", n, peers)
				}
				return nil
			})
		})
	}
}

// BenchmarkSPIngestLogColumnar and BenchmarkReceiverDecodeLog are the SP
// ingest and the receiver-side decode of one LogAnalytics epoch shipped
// 81 % raw (benchcase.LogShippedEpochs — the log-adaptive shape), cycling
// through consecutive epochs: the string path's owner benchmarks (the
// agent side of a log epoch has none — benchmark/'s core.run_epoch_ms on
// log-adaptive is its number). Ingest MB/s is over the first epoch's
// logical column bytes, decode MB/s over its wire bytes.
func BenchmarkSPIngestLogColumnar(b *testing.B) {
	engine, epochs, err := benchcase.LogIngest()
	if err != nil {
		b.Fatal(err)
	}
	var logBytes int64
	for _, f := range epochs[0] {
		logBytes += f.Cols.TotalBytes()
	}
	b.SetBytes(logBytes)
	i := 0
	benchWarm(b, func() error {
		i++
		for _, f := range epochs[i%len(epochs)] {
			if err := engine.IngestColumnar(f.Stage, f.Cols); err != nil {
				return err
			}
		}
		return nil
	})
}

func BenchmarkReceiverDecodeLog(b *testing.B) {
	epochs, err := benchcase.LogShippedEpochs()
	if err != nil {
		b.Fatal(err)
	}
	fr := benchcase.NewEpochDecoder()
	b.SetBytes(int64(len(epochs[0])))
	i := 0
	benchWarm(b, func() error {
		i++
		return benchcase.DecodeEpoch(fr, epochs[i%len(epochs)])
	})
}

// BenchmarkWireEncodePing and BenchmarkWireDecodePing are the wire
// codec's owner records on the drain the s2s-drain workload ships
// (benchcase.DrainedPingCols): one epoch's raw probes to a
// flate-compressed columnar frame and back to SoA sections. MB/s is over
// the logical payload (PingProbeWireSize per probe), not the wire bytes,
// so a denser encoding does not read as a slower one.
func BenchmarkWireEncodePing(b *testing.B) { benchWireEncode(b, benchcase.DrainedPingCols) }
func BenchmarkWireDecodePing(b *testing.B) { benchWireDecode(b, benchcase.DrainedPingCols) }

// BenchmarkWireEncodeSpans and BenchmarkWireDecodeSpans are the same
// owner records on the frame the spans-ha workload ships
// (benchcase.SpanIngest's 47 620 spans): the one canonical frame with a
// float column, so the byte-plane codec shows here.
func BenchmarkWireEncodeSpans(b *testing.B) { benchWireEncode(b, spanCols) }
func BenchmarkWireDecodeSpans(b *testing.B) { benchWireDecode(b, spanCols) }

func spanCols() (*wire.ColumnarBatch, error) {
	_, _, cb, err := benchcase.SpanIngest()
	return cb, err
}

func benchWireEncode(b *testing.B, cols func() (*wire.ColumnarBatch, error)) {
	cb, err := cols()
	if err != nil {
		b.Fatal(err)
	}
	encode, _ := benchcase.FrameCodec(cb)
	b.SetBytes(cb.TotalBytes())
	benchWarm(b, func() error {
		_, err := encode()
		return err
	})
}

func benchWireDecode(b *testing.B, cols func() (*wire.ColumnarBatch, error)) {
	cb, err := cols()
	if err != nil {
		b.Fatal(err)
	}
	encode, decode := benchcase.FrameCodec(cb)
	frame, err := encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(cb.TotalBytes())
	benchWarm(b, func() error { return decode(frame) })
}

func BenchmarkSimEpoch(b *testing.B) {
	node, err := sim.NewNode(sim.DefaultNodeConfig(plan.S2SProbe(), workload.PingmeshMbps10x, 0.6))
	if err != nil {
		b.Fatal(err)
	}
	_ = node.SetFactors([]float64{1, 1, 0.5})
	b.ReportAllocs()
	b.ResetTimer()
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bb.RunEpoch([]jarvis.Batch{batch}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fault tolerance, HA, admission, cluster simulator ---

// warmSnapshot returns the canonical warm agent pipeline (three epochs
// of S2SProbe state in its G+R stage) and a function taking its full
// snapshot — Pipeline.Capture into a checkpoint.Snapshot, the exact
// work AgentRecovery.AfterEpoch does each cadence.
func warmSnapshot(b *testing.B) func(seq int) *checkpoint.Snapshot {
	pipe, err := benchcase.WarmPipeline(3)
	if err != nil {
		b.Fatal(err)
	}
	return func(seq int) *checkpoint.Snapshot {
		return &checkpoint.Snapshot{
			Checkpoint: pipe.Capture(true),
			Seq:        uint64(seq),
			Factors:    pipe.LoadFactors(),
		}
	}
}

// encodedLen is a snapshot's size on disk and on the replication link:
// the byte count the snapshot benchmarks' MB/s is over.
func encodedLen(b *testing.B, snap *checkpoint.Snapshot) int64 {
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	return int64(buf.Len())
}

// BenchmarkCheckpointSave measures the full durable snapshot: capture,
// encode and atomic save into a store (divide by the cadence,
// checkpoint.DefaultEvery, for the per-epoch cost).
func BenchmarkCheckpointSave(b *testing.B) {
	snapshot := warmSnapshot(b)
	store, err := checkpoint.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	b.SetBytes(encodedLen(b, snapshot(0)))
	seq := 0
	benchWarm(b, func() error {
		seq++
		_, err := store.Save(snapshot(seq))
		return err
	})
}

// BenchmarkCheckpointRestore measures the restore path over the same
// snapshot: decode it and fold it into a pipeline.
func BenchmarkCheckpointRestore(b *testing.B) {
	var enc bytes.Buffer
	if err := warmSnapshot(b)(0).Encode(&enc); err != nil {
		b.Fatal(err)
	}
	fresh, err := stream.NewPipeline(plan.S2SProbe(), stream.DefaultOptions(1.0, 0))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(enc.Len()))
	benchWarm(b, func() error {
		got, err := checkpoint.DecodeSnapshot(bytes.NewReader(enc.Bytes()))
		if err != nil {
			return err
		}
		return fresh.RestoreCheckpoint(&got.Checkpoint)
	})
}

// BenchmarkDeltaSnapshotSave measures what `-checkpoint-every 1` costs
// per epoch with incremental snapshots, on the workload every-epoch
// checkpointing is designed for: an aggregation-heavy query whose epochs
// fold tens of thousands of records into a few thousand hot groups
// (LogAnalytics — ~47k lines/epoch into ~2k (tenant, stat, bucket)
// groups). After each pipeline epoch (untimed), only the dirtied groups
// are captured and saved as a delta chained onto the previous snapshot.
// (Probe queries, where nearly every record opens or touches a distinct
// group, keep the default cadence: for them a delta is almost the full
// state, see BenchmarkCheckpointSave.) MB/s is over the first delta's
// encoded size.
func BenchmarkDeltaSnapshotSave(b *testing.B) {
	pipe, err := stream.NewPipeline(plan.LogAnalytics(), stream.DefaultOptions(4.0, 0))
	if err != nil {
		b.Fatal(err)
	}
	ones := make([]float64, len(pipe.Query().Ops))
	for i := range ones {
		ones[i] = 1
	}
	if err := pipe.SetLoadFactors(ones); err != nil {
		b.Fatal(err)
	}
	gen := workload.NewLogGen(workload.DefaultLogConfig(1))
	for i := 0; i < 3; i++ {
		pipe.RunEpoch(gen.NextWindow(1_000_000))
	}

	// newChain replaces the store with a fresh one whose chain base is
	// the pipeline's current full state.
	var (
		store  *checkpoint.Store
		lastID uint64
	)
	newChain := func() {
		if store != nil {
			_ = store.Close()
			_ = os.RemoveAll(store.Dir())
		}
		var err error
		if store, err = checkpoint.OpenStore(b.TempDir()); err != nil {
			b.Fatal(err)
		}
		if lastID, err = store.Save(&checkpoint.Snapshot{Checkpoint: pipe.Capture(true)}); err != nil {
			b.Fatal(err)
		}
	}
	newChain()
	defer func() { _ = store.Close() }()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i%64 == 0 && i > 0 {
			// Bound the store directory: start a fresh chain so the
			// benchmark's disk footprint stays flat.
			newChain()
		}
		pipe.RunEpoch(gen.NextWindow(1_000_000))
		epoch := uint64(i + 1)
		b.StartTimer()
		snap := &checkpoint.Snapshot{
			Checkpoint: pipe.Capture(false),
			Seq:        epoch,
			Factors:    pipe.LoadFactors(),
			BaseID:     lastID,
		}
		if lastID, err = store.Save(snap); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.StopTimer()
			b.SetBytes(encodedLen(b, snap))
			b.StartTimer()
		}
	}
}

// BenchmarkEpochReplay applies one shipped drain-heavy S2SProbe epoch to
// an SP engine through the receiver — hello, staged columnar frames,
// commit, ack — the per-epoch cost of catching up after a restart.
// BenchmarkReceiverDecode isolates the wire-level share of it with the
// row-materializing decoder (a FrameReader without columnar exec; the
// receiver's own pooled SoA decode is BenchmarkWireDecodePing and
// BenchmarkReceiverDecodeLog). MB/s of both is over the epoch's wire
// bytes.
func BenchmarkEpochReplay(b *testing.B) {
	_, epochBytes, err := benchcase.ShippedEpoch()
	if err != nil {
		b.Fatal(err)
	}
	engine, err := stream.NewSPEngine(plan.S2SProbe())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(epochBytes)))
	benchWarm(b, func() error { return benchcase.ReplayEpoch(engine, epochBytes) })
}

func BenchmarkReceiverDecode(b *testing.B) {
	_, epochBytes, err := benchcase.ShippedEpoch()
	if err != nil {
		b.Fatal(err)
	}
	fr := wire.NewFrameReader(bytes.NewReader(epochBytes))
	b.SetBytes(int64(len(epochBytes)))
	benchWarm(b, func() error {
		fr.Reset(bytes.NewReader(epochBytes))
		for {
			if _, err := fr.ReadFrame(); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	})
}

// BenchmarkReplicationApply times Standby.ApplySnapshot on a full
// S2SProbe snapshot at the canonical scale (an SP engine warmed with one
// shipped epoch): decode + fold + local save + shadow-engine reload, the
// per-snapshot cost a standby pays to stay warm. MB/s is over the
// encoded snapshot.
func BenchmarkReplicationApply(b *testing.B) {
	_, epochBytes, err := benchcase.ShippedEpoch()
	if err != nil {
		b.Fatal(err)
	}
	donor, err := stream.NewSPEngine(plan.S2SProbe())
	if err != nil {
		b.Fatal(err)
	}
	if err := benchcase.ReplayEpoch(donor, epochBytes); err != nil {
		b.Fatal(err)
	}
	var enc bytes.Buffer
	if err := (&checkpoint.Snapshot{
		Checkpoint: stream.Checkpoint{Stages: donor.Capture(true).Stages},
		Seq:        1,
		Sources:    map[uint32]checkpoint.SourceState{1: {Watermark: 1_000_000, AppliedSeq: 1}},
	}).Encode(&enc); err != nil {
		b.Fatal(err)
	}
	shadow, err := core.NewProcessor(plan.S2SProbe())
	if err != nil {
		b.Fatal(err)
	}
	st, err := ha.NewStandby(shadow, b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(enc.Len()))
	id := uint64(0)
	benchWarm(b, func() error {
		id++
		return st.ApplySnapshot(&wire.ReplSnapshot{ID: id, Seq: id, Term: 1, Data: enc.Bytes()})
	})
}

// BenchmarkReplicationPublish times the primary's half of replicating
// one snapshot: Chain.Save of the canonical span delta (one second of
// SpanGen drain re-dirtying its groups in a warm TraceSpanAgg engine; one
// save in seventeen is the chain's full base, about the same size here)
// and PublishSnapshot of it to one attached subscriber that reads the
// stream off an in-memory pipe and never acks. The capture is not timed.
// The rows are encoded once — in the save — and B/op says so: one copy of
// the snapshot remembered, its frames for the standby, no second encode.
// MB/s is over the first snapshot's encoded size.
func BenchmarkReplicationPublish(b *testing.B) {
	engine, _, cb, err := benchcase.SpanIngest()
	if err != nil {
		b.Fatal(err)
	}
	store, err := checkpoint.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	store.SetRetention(1)
	pub := ha.NewPublisher(store, filepath.Join(store.Dir(), "results.log"), 1, nil)
	ln := &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = pub.Serve(ctx, ln) }()
	defer pub.Close()
	near, far := net.Pipe()
	ln.conns <- far
	go func() {
		fw := wire.NewFrameWriter(near)
		hello := jarvis.Record{WireSize: 33, Data: &wire.ReplHello{Version: wire.CurrentWireVersion}}
		if fw.WriteFrame(wire.Frame{StreamID: wire.ControlStreamID, Records: jarvis.Batch{hello}}) == nil && fw.Flush() == nil {
			_, _ = io.Copy(io.Discard, near)
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); pub.Standbys() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			b.Fatal("subscriber never attached")
		}
	}

	seq := uint64(0)
	capture := func() *checkpoint.Snapshot {
		if err := engine.IngestColumnar(0, cb); err != nil {
			b.Fatal(err)
		}
		seq++
		return &checkpoint.Snapshot{
			Checkpoint: engine.Capture(store.Chain().Next()),
			Seq:        seq,
			Sources:    map[uint32]checkpoint.SourceState{1: {Watermark: 1_000_000, AppliedSeq: seq}},
			Term:       1,
		}
	}
	replicate := func(snap *checkpoint.Snapshot) {
		id, err := store.Chain().Save(snap)
		if err != nil {
			b.Fatal(err)
		}
		pub.PublishSnapshot(id, snap)
	}
	first := capture()
	replicate(first)
	b.SetBytes(encodedLen(b, first))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		snap := capture()
		b.StartTimer()
		replicate(snap)
	}
	b.StopTimer()
	if pub.Standbys() != 1 {
		b.Fatal("the subscriber fell a full queue behind and was dropped: later publishes reached no one")
	}
}

// pipeListener hands a Publisher connections made with net.Pipe.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// BenchmarkAdmissionAdmit is the admission controller's per-epoch cost
// (token-bucket check + counters) on the always-admitted fast path.
func BenchmarkAdmissionAdmit(b *testing.B) {
	// The budget is effectively infinite: b.N admits of a ~600 KB epoch
	// must never exhaust the bucket, or the benchmark measures the
	// delayed path instead of the fast path.
	ctrl := admission.NewController(admission.Config{
		RateBytesPerSec: 1e18, BurstBytes: 1e18, Now: time.Now,
	})
	ctrl.Register(1, "bench-tenant", admission.Silver)
	const epochBytes = 600 << 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := ctrl.Admit(1, epochBytes); v != admission.Admitted {
			b.Fatalf("unexpected verdict %v", v)
		}
	}
}

// BenchmarkClusterSim500 runs a 500-node four-workload spec to completion
// on sim.Cluster's shared virtual clock, one whole run per iteration
// (cluster construction untimed), and reports the simulator's wall-clock
// throughput: node-epochs per wall second and virtual seconds per wall
// second.
func BenchmarkClusterSim500(b *testing.B) {
	s, err := spec.Parse([]byte(`{
  "name": "bench-500",
  "seed": 17,
  "epochs": 3,
  "groups": [
    {"name": "ping", "query": "s2s", "nodes": 200, "rate_mbps": 0.02},
    {"name": "tor", "query": "t2t", "nodes": 100, "rate_mbps": 0.02},
    {"name": "logs", "query": "log", "nodes": 100, "rate_mbps": 0.02},
    {"name": "traces", "query": "spans", "nodes": 100, "rate_mbps": 0.02}
  ]
}`))
	if err != nil {
		b.Fatal(err)
	}
	var nodeEpochs, virtualS, wallS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// A compiled scenario owns its nodes' generators: one per run.
		sc, err := s.Compile()
		if err != nil {
			b.Fatal(err)
		}
		c, err := sim.NewCluster(sim.ClusterConfig{Scenario: sc})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := c.Run()
		if err != nil {
			b.Fatal(err)
		}
		nodeEpochs += float64(res.Nodes * res.Epochs)
		virtualS += res.VirtualSeconds
		wallS += res.WallSeconds
	}
	b.ReportMetric(nodeEpochs/wallS, "node-epochs/s")
	b.ReportMetric(virtualS/wallS, "virtual-s/s")
}
