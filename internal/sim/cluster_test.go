package sim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"jarvis/internal/obs"
	"jarvis/internal/plan"
	"jarvis/internal/stream"
	"jarvis/internal/transport"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
	"jarvis/internal/workload/spec"
)

// compileSpec parses and compiles a spec document, failing the test on
// any error.
func compileSpec(t *testing.T, doc string) *spec.Scenario {
	t.Helper()
	s, err := spec.Parse([]byte(doc))
	if err != nil {
		t.Fatalf("parse spec: %v", err)
	}
	sc, err := s.Compile()
	if err != nil {
		t.Fatalf("compile spec: %v", err)
	}
	return sc
}

// runCluster compiles the doc fresh (generators are stateful, so each
// run needs its own compilation) and executes it.
func runCluster(t *testing.T, doc string, cfg ClusterConfig) *ClusterResult {
	t.Helper()
	cfg.Scenario = compileSpec(t, doc)
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	return res
}

// determinismSpec is a 100-node scenario per canonical query exercising
// the full machinery: mixed SLO classes, gamma arrivals, diurnal
// modulation, hot-key skew, churn, a rate spike, admission control,
// checkpoints, and an SP crash with recovery mid-run.
func determinismSpec(query string) string {
	return fmt.Sprintf(`{
  "name": "determinism-%[1]s",
  "seed": 41,
  "epochs": 8,
  "sp": {"admit_rate_mbps": 20.0, "checkpoint_every": 2},
  "groups": [
    {"name": "fleet", "query": "%[1]s", "nodes": 80, "rate_mbps": 0.05, "class": "best-effort",
     "arrival": {"process": "gamma", "shape": 2},
     "diurnal": {"period_epochs": 6, "amplitude": 0.4},
     "skew": {"exponent": 1.1},
     "churn": {"period_epochs": 3, "fraction": 0.2}},
    {"name": "vip", "query": "%[1]s", "nodes": 20, "rate_mbps": 0.05, "class": "gold"}
  ],
  "faults": [
    {"epoch": 2, "kind": "rate_spike", "group": "fleet", "factor": 4, "until_epoch": 5},
    {"epoch": 3, "kind": "sp_crash", "query": "%[1]s", "outage_epochs": 2}
  ]
}`, query)
}

// determinismGolden pins the first run of every determinism spec across
// commits: run-versus-run identity cannot see a change that alters both
// runs the same way. Regenerate it with
// SIM_REGEN=1 go test ./internal/sim -run TestClusterDeterminismDoubleRun.
var determinismGolden = filepath.Join("testdata", "determinism.golden")

// goldenLines renders a run as the golden's lines for one query: per SP
// its row count and the sha256 of its result log, then the sha256 of
// the run's decision trace.
func goldenLines(query string, r *ClusterResult) []string {
	names := make([]string, 0, len(r.ResultLogs))
	for name := range r.ResultLogs {
		names = append(names, name)
	}
	sort.Strings(names)
	var lines []string
	for _, name := range names {
		log := r.ResultLogs[name]
		rows := bytes.Count(log, []byte("\n")) - bytes.Count(log, []byte("epoch "))
		lines = append(lines, fmt.Sprintf("%s sp=%s rows=%d log=%x", query, name, rows, sha256.Sum256(log)))
	}
	return append(lines, fmt.Sprintf("%s decisions=%x", query, sha256.Sum256(r.Decisions)))
}

// TestClusterDeterminismDoubleRun is the core contract: for every
// canonical workload, two independent compilations and runs of the same
// 100-node spec — including an SP crash, checkpoint recovery, admission
// control, churn, and a rate spike — produce byte-identical result logs
// AND byte-identical decision traces, and the first run matches the
// committed golden. Run under -race in CI; any hidden goroutine or
// wall-clock dependence breaks it.
func TestClusterDeterminismDoubleRun(t *testing.T) {
	regen := os.Getenv("SIM_REGEN") != ""
	var want []string
	if !regen {
		data, err := os.ReadFile(determinismGolden)
		if err != nil {
			t.Fatalf("missing golden (regenerate with SIM_REGEN=1): %v", err)
		}
		want = strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	}
	var got []string
	queries := []string{"s2s", "t2t", "log", "spans"}
	for _, query := range queries {
		t.Run(query, func(t *testing.T) {
			doc := determinismSpec(query)
			r1 := runCluster(t, doc, ClusterConfig{CheckpointDir: t.TempDir()})
			r2 := runCluster(t, doc, ClusterConfig{CheckpointDir: t.TempDir()})

			lines := goldenLines(query, r1)
			got = append(got, lines...)
			if !regen {
				var pinned []string
				for _, l := range want {
					if strings.HasPrefix(l, query+" ") {
						pinned = append(pinned, l)
					}
				}
				if strings.Join(lines, "\n") != strings.Join(pinned, "\n") {
					t.Errorf("run differs from %s:\n--- got ---\n%s\n--- want ---\n%s",
						determinismGolden, strings.Join(lines, "\n"), strings.Join(pinned, "\n"))
				}
			}

			if r1.Nodes != 100 {
				t.Fatalf("nodes = %d, want 100", r1.Nodes)
			}
			if r1.Rows == 0 {
				t.Fatal("run produced no result rows")
			}
			if r1.Failovers < 1 {
				t.Fatalf("failovers = %d, want >= 1", r1.Failovers)
			}
			if len(r1.ResultLogs) != len(r2.ResultLogs) {
				t.Fatalf("SP count differs: %d vs %d", len(r1.ResultLogs), len(r2.ResultLogs))
			}
			for name, log1 := range r1.ResultLogs {
				log2, ok := r2.ResultLogs[name]
				if !ok {
					t.Fatalf("second run is missing SP %q", name)
				}
				if !bytes.Equal(log1, log2) {
					t.Fatalf("result log %q diverged between runs:\n--- run1 (%d bytes) ---\n%.2000s\n--- run2 (%d bytes) ---\n%.2000s",
						name, len(log1), log1, len(log2), log2)
				}
			}
			if !bytes.Equal(r1.Decisions, r2.Decisions) {
				t.Fatalf("decision traces diverged:\n--- run1 ---\n%.3000s\n--- run2 ---\n%.3000s", r1.Decisions, r2.Decisions)
			}
			if r1.Rows != r2.Rows || r1.Failovers != r2.Failovers ||
				r1.EpochsDelayed != r2.EpochsDelayed || r1.EpochsDegraded != r2.EpochsDegraded {
				t.Fatalf("summary stats diverged: %+v vs %+v", r1, r2)
			}
		})
	}
	if regen {
		if len(got) == 0 || !strings.HasPrefix(got[len(got)-1], queries[len(queries)-1]+" ") {
			t.Fatal("SIM_REGEN needs every query's subtest to run")
		}
		if err := os.MkdirAll(filepath.Dir(determinismGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(determinismGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d lines)", determinismGolden, len(got))
	}
}

// TestClusterStatelessCrashRecovers crashes an SP that has no durable
// checkpoint dir: recovery comes up with an empty dedup frontier while
// every agent resumes with Seq > 0, so each source presents an
// unfillable sequence hole. The receiver's gap escape must accept the
// jump — across reconnecting sessions — and the SP must keep producing
// rows. Regression: the escape marker used to be wiped on every hello
// (and ping-ponged between two buffered epochs), silencing a
// stateless-recovered SP forever.
func TestClusterStatelessCrashRecovers(t *testing.T) {
	doc := `{
  "name": "stateless-crash", "seed": 7, "epochs": 5,
  "sp": {"admit_rate_mbps": 20.0},
  "groups": [
    {"name": "fleet", "nodes": 40, "query": "s2s", "rate_mbps": 0.05, "class": "best-effort"},
    {"name": "logs", "nodes": 10, "query": "log", "rate_mbps": 0.05, "class": "silver"}],
  "faults": [{"epoch": 3, "kind": "sp_crash", "query": "s2s", "outage_epochs": 2}]
}`
	runOnce := func() *ClusterResult {
		sc := compileSpec(t, doc)
		c, err := NewCluster(ClusterConfig{Scenario: sc})
		if err != nil {
			t.Fatalf("new cluster: %v", err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatalf("cluster run: %v", err)
		}
		return res
	}
	r1 := runOnce()
	if r1.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", r1.Failovers)
	}
	if len(r1.ResultLogs["s2s"]) == 0 {
		t.Fatalf("stateless-recovered SP produced no rows (log empty); total rows %d", r1.Rows)
	}
	r2 := runOnce()
	if !bytes.Equal(r1.ResultLogs["s2s"], r2.ResultLogs["s2s"]) {
		t.Fatalf("stateless crash recovery is nondeterministic: %d vs %d bytes", len(r1.ResultLogs["s2s"]), len(r2.ResultLogs["s2s"]))
	}
}

// TestClusterDegradeDeterministic starves the admission controller so
// the degrade path engages, and requires the overload response itself —
// delays, sketch degradation, the decision trace — to be deterministic.
func TestClusterDegradeDeterministic(t *testing.T) {
	doc := `{
  "name": "degrade",
  "seed": 7,
  "epochs": 6,
  "sp": {"admit_rate_mbps": 0.003, "checkpoint_every": 3},
  "groups": [
    {"name": "noisy", "query": "s2s", "nodes": 16, "rate_mbps": 0.08, "class": "best-effort"},
    {"name": "vip", "query": "s2s", "nodes": 4, "rate_mbps": 0.02, "class": "gold"}
  ]
}`
	r1 := runCluster(t, doc, ClusterConfig{CheckpointDir: t.TempDir()})
	r2 := runCluster(t, doc, ClusterConfig{CheckpointDir: t.TempDir()})
	if r1.EpochsDelayed == 0 && r1.EpochsDegraded == 0 {
		t.Fatalf("admission never engaged (delayed=%d degraded=%d); starve harder", r1.EpochsDelayed, r1.EpochsDegraded)
	}
	if r1.EpochsDelayed != r2.EpochsDelayed || r1.EpochsDegraded != r2.EpochsDegraded {
		t.Fatalf("overload response diverged: delayed %d vs %d, degraded %d vs %d",
			r1.EpochsDelayed, r2.EpochsDelayed, r1.EpochsDegraded, r2.EpochsDegraded)
	}
	if !bytes.Equal(r1.Decisions, r2.Decisions) {
		t.Fatalf("degrade decision traces diverged:\n--- run1 ---\n%.3000s\n--- run2 ---\n%.3000s", r1.Decisions, r2.Decisions)
	}
	for name, log1 := range r1.ResultLogs {
		if !bytes.Equal(log1, r2.ResultLogs[name]) {
			t.Fatalf("result log %q diverged under overload", name)
		}
	}
}

// recordClusterCapture ships a fixed generator stream into a receiver
// with both recorder sinks armed — one sequenced session, hello then
// every epoch — and returns the stream capture plus a ring dump of the
// same connection.
func recordClusterCapture(t *testing.T, epochs, quietTail int) (capture, dump []byte) {
	t.Helper()
	q := plan.S2SProbe()
	engine, err := stream.NewSPEngine(q)
	if err != nil {
		t.Fatal(err)
	}
	rc := transport.NewReceiver(engine)
	rc.RegisterSource(7)
	var recorded bytes.Buffer
	tr := transport.NewTrafficRecorder(&recorded)
	tr.ArmRing(rc.Counters())
	rc.SetTrafficRecorder(tr)

	pipe, err := stream.NewPipeline(q, stream.DefaultOptions(4.0, 0))
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]float64, len(q.Ops))
	for i := range ones {
		ones[i] = 1
	}
	if err := pipe.SetLoadFactors(ones); err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultPingConfig(42)
	cfg.SrcIP = 0x0A0000FF
	cfg.IntervalMicros = 5_000
	gen := workload.NewPingGen(cfg)
	ship := transport.NewDurableShipper(7, 0)

	const dur = int64(1_000_000)
	var cb wire.ColumnarBatch
	eventTime := int64(0)
	for e := 0; e < epochs+quietTail; e++ {
		eventTime += dur
		var res stream.EpochResult
		if e < epochs {
			cb.Reset()
			gen.NextWindowCols(dur, &cb)
			res = pipe.RunEpochColumnar(&cb)
		} else {
			gen.SkipWindow(dur)
			pipe.ObserveTime(eventTime)
			res = pipe.RunEpoch(nil)
		}
		if err := ship.ShipEpoch(res); err != nil {
			t.Fatal(err)
		}
	}
	if err := ship.Flush(rc); err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	if dump = tr.Trigger("test:cluster-replay"); dump == nil {
		t.Fatal("ring recorded nothing")
	}
	return recorded.Bytes(), dump
}

// TestClusterReplaySource records a live wire-v4 run and replays it
// into the sim as an arrival source — once from the stream capture,
// once from a ring dump of the same connection: the dedicated replay SP
// must apply every recorded epoch, produce the same total rows as a
// direct capture replay, and stay byte-deterministic across cluster runs.
func TestClusterReplaySource(t *testing.T) {
	capture, dump := recordClusterCapture(t, 6, 11)

	// Ground truth: replay the capture straight through a fresh receiver.
	engine, err := stream.NewSPEngine(plan.S2SProbe())
	if err != nil {
		t.Fatal(err)
	}
	direct := transport.NewReceiver(engine)
	direct.RegisterSource(7)
	if _, err := transport.ReplayTraffic(direct, capture); err != nil {
		t.Fatal(err)
	}
	wantRows := len(direct.Advance())
	if wantRows == 0 {
		t.Fatal("direct capture replay produced no rows")
	}

	doc := `{
  "name": "replay-host",
  "seed": 3,
  "epochs": 6,
  "groups": [{"name": "live", "query": "s2s", "nodes": 4, "rate_mbps": 0.05}]
}`
	var logs [][]byte
	for _, input := range [][]byte{capture, dump} {
		cfg := ClusterConfig{Replay: []ReplaySource{{Query: "s2s", Capture: input}}}
		r1 := runCluster(t, doc, cfg)
		r2 := runCluster(t, doc, cfg)

		replayLog, ok := r1.ResultLogs["replay:s2s"]
		if !ok {
			t.Fatalf("no replay SP in result logs: %v", keysOf(r1.ResultLogs))
		}
		gotRows := bytes.Count(replayLog, []byte("\n")) - bytes.Count(replayLog, []byte("epoch "))
		if gotRows != wantRows {
			t.Fatalf("replay SP emitted %d rows, direct replay %d", gotRows, wantRows)
		}
		if !bytes.Equal(replayLog, r2.ResultLogs["replay:s2s"]) {
			t.Fatal("replayed-source result log diverged between cluster runs")
		}
		if liveLog := r1.ResultLogs["s2s"]; len(liveLog) == 0 {
			t.Fatal("live spec query produced no results alongside the replay source")
		}
		logs = append(logs, replayLog)
	}
	if !bytes.Equal(logs[0], logs[1]) {
		t.Fatal("the ring dump and the stream capture of one connection replay to different result logs")
	}
}

func keysOf(m map[string][]byte) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

// TestClusterScale1000 is the headline scale check: a 1000-node
// spec-driven run over every canonical query completes on a shared
// virtual clock — the event loop is single-threaded and sleep-free, so
// virtual time must outrun wall time by a wide margin.
func TestClusterScale1000(t *testing.T) {
	doc := `{
  "name": "scale-1000",
  "seed": 99,
  "epochs": 3,
  "groups": [
    {"name": "ping", "query": "s2s", "nodes": 400, "rate_mbps": 0.01},
    {"name": "tor", "query": "t2t", "nodes": 200, "rate_mbps": 0.01},
    {"name": "logs", "query": "log", "nodes": 200, "rate_mbps": 0.01},
    {"name": "traces", "query": "spans", "nodes": 200, "rate_mbps": 0.01}
  ]
}`
	reg := obs.Default()
	eventsBefore := reg.Counter(CtrSimEvents).Value()
	epochsBefore := reg.Counter(CtrSimEpochs).Value()

	res := runCluster(t, doc, ClusterConfig{})
	if res.Nodes != 1000 {
		t.Fatalf("nodes = %d, want 1000", res.Nodes)
	}
	if res.Rows == 0 {
		t.Fatal("1000-node run produced no rows")
	}
	if res.Epochs != 3+11 {
		t.Fatalf("epochs = %d, want 14", res.Epochs)
	}
	if res.VirtualSeconds != 14 {
		t.Fatalf("virtual seconds = %v, want 14", res.VirtualSeconds)
	}
	// The run simulates 14000 node-epochs; if anything slept on the wall
	// clock the suite would blow right past this generous bound.
	if res.WallSeconds > 120 {
		t.Fatalf("1000-node run took %.1fs wall — something is sleeping", res.WallSeconds)
	}
	if res.NodeEpochsPerSec <= 0 {
		t.Fatalf("throughput %v", res.NodeEpochsPerSec)
	}
	if got := reg.Counter(CtrSimEvents).Value() - eventsBefore; got != res.Events {
		t.Fatalf("sim_events_processed delta = %d, result says %d", got, res.Events)
	}
	if got := reg.Counter(CtrSimEpochs).Value() - epochsBefore; got != int64(res.Epochs) {
		t.Fatalf("sim_epochs_total delta = %d, want %d", got, res.Epochs)
	}
	if got := reg.Gauge(GaugeSimVirtualSeconds).Value(); got != 14 {
		t.Fatalf("sim_virtual_seconds gauge = %d, want 14", got)
	}
	t.Logf("1000 nodes × %d epochs in %.2fs wall (%.0f node-epochs/sec, %d events)",
		res.Epochs, res.WallSeconds, res.NodeEpochsPerSec, res.Events)
}

// TestClusterSoak is the CI soak target: 500 nodes, every workload,
// faults, admission, and checkpoints at once, under -race. It doubles
// as the memory/goroutine-leak canary for the event loop.
func TestClusterSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	doc := `{
  "name": "soak-500",
  "seed": 1234,
  "epochs": 4,
  "sp": {"admit_rate_mbps": 2.0, "checkpoint_every": 2},
  "groups": [
    {"name": "ping", "query": "s2s", "nodes": 200, "rate_mbps": 0.02, "class": "silver",
     "arrival": {"process": "poisson"}, "churn": {"period_epochs": 2, "fraction": 0.1}},
    {"name": "tor", "query": "t2t", "nodes": 100, "rate_mbps": 0.02, "class": "gold",
     "diurnal": {"period_epochs": 4, "amplitude": 0.5}},
    {"name": "logs", "query": "log", "nodes": 100, "rate_mbps": 0.02, "class": "best-effort",
     "skew": {"exponent": 1.2}},
    {"name": "traces", "query": "spans", "nodes": 100, "rate_mbps": 0.02,
     "arrival": {"process": "weibull", "shape": 0.7}}
  ],
  "faults": [
    {"epoch": 1, "kind": "sp_crash", "query": "s2s", "outage_epochs": 1},
    {"epoch": 2, "kind": "sp_crash", "query": "spans", "outage_epochs": 1},
    {"epoch": 1, "kind": "rate_spike", "group": "logs", "factor": 3, "until_epoch": 3}
  ]
}`
	res := runCluster(t, doc, ClusterConfig{CheckpointDir: t.TempDir()})
	if res.Nodes != 500 {
		t.Fatalf("nodes = %d, want 500", res.Nodes)
	}
	if res.Rows == 0 || res.Failovers != 2 {
		t.Fatalf("rows=%d failovers=%d, want rows>0 failovers=2", res.Rows, res.Failovers)
	}
	t.Logf("soak: 500 nodes × %d epochs, %d rows, %.0f node-epochs/sec",
		res.Epochs, res.Rows, res.NodeEpochsPerSec)
}

// TestClusterScaleNodes pins the spec rescaling helper the CLI's
// -nodes flag uses: totals hit the target and every group survives.
func TestClusterScaleNodes(t *testing.T) {
	s, err := spec.Parse([]byte(determinismSpec("s2s")))
	if err != nil {
		t.Fatal(err)
	}
	s.ScaleNodes(37)
	if got := s.TotalNodes(); got != 37 {
		t.Fatalf("scaled total = %d, want 37", got)
	}
	for i := range s.Groups {
		if s.Groups[i].Nodes < 1 {
			t.Fatalf("group %q scaled to zero", s.Groups[i].Name)
		}
	}
}

// hotSpikeSpec is the overload soak: three single-node tenants — gold,
// silver, silver — share one SP at 40 % of their admission budgets, and
// (when spike is set) the "hot" silver tenant runs at 10x its rate for
// epochs 10–25. Epochs are one 10 s query window long: Cluster pins
// load factors to 1, so an agent ships per-window aggregates, and only
// at this cadence does every epoch's shipped size follow the input rate
// (~2.5 KB silver, ~5 KB gold, ~13.5 KB spiked). The bucket refills one
// steady silver epoch's worth per 0.4 epochs and holds one epoch of
// refill, so a spiked epoch can never drain at its exact cost — only
// sampled — and the queue bound of 2 makes the spike shed and replay,
// not just delay.
func hotSpikeSpec(spike bool) string {
	faults := ""
	if spike {
		faults = `"faults": [{"epoch": 10, "kind": "rate_spike", "group": "hot", "factor": 10, "until_epoch": 25}],`
	}
	return fmt.Sprintf(`{
  "name": "hot-tenant-spike", "seed": 5, "epochs": 40, "epoch_millis": 10000, "drain_epochs": 3,
  "sp": {"admit_rate_mbps": 0.005, "admit_burst_kb": 6.1, "max_delayed_epochs": 2},
  %s
  "groups": [
    {"name": "gold-app", "query": "spans", "nodes": 1, "rate_mbps": 0.005, "class": "gold"},
    {"name": "steady", "query": "spans", "nodes": 1, "rate_mbps": 0.002, "class": "silver"},
    {"name": "hot", "query": "spans", "nodes": 1, "rate_mbps": 0.002, "class": "silver"}
  ]
}`, faults)
}

// TestClusterHotTenantSpike is the overload acceptance scenario on the
// production receiver: one tenant spikes to 10x its rate for 15 epochs.
// Nothing is lost (shed epochs replay from the shipper's buffer), the
// well-behaved tenants never feel it, the hot tenant is delayed, shed,
// degraded to sampled ingestion and promoted back once the spike ends —
// both transitions in the decision trace — and fairness recovers to
// Jain >= 0.9. The spike-free run of the same spec is clean, and the
// overload response is byte-deterministic.
func TestClusterHotTenantSpike(t *testing.T) {
	base := runCluster(t, hotSpikeSpec(false), ClusterConfig{})
	res := runCluster(t, hotSpikeSpec(true), ClusterConfig{})
	again := runCluster(t, hotSpikeSpec(true), ClusterConfig{})

	for name, r := range map[string]*ClusterResult{"spike-free": base, "spike": res} {
		if r.EpochGaps != 0 {
			t.Fatalf("%s run: %d sequence gaps (a shed epoch was not replayed in order)", name, r.EpochGaps)
		}
		for i, n := range r.Unacked {
			if n != 0 {
				t.Fatalf("%s run: node %d ended with %d unacked epochs (shed must replay, not drop)", name, i, n)
			}
		}
		if r.Rows == 0 {
			t.Fatalf("%s run produced no result rows", name)
		}
	}
	for _, name := range []string{"gold-app", "steady"} {
		got, ref := res.Tenants[name], base.Tenants[name]
		if got.Shed != 0 || got.Degrades != 0 {
			t.Fatalf("%s (well-behaved) was shed or degraded under the spike: %+v", name, got)
		}
		if got.Delayed > ref.Delayed {
			t.Fatalf("%s delayed %d epochs under the spike, %d without it", name, got.Delayed, ref.Delayed)
		}
	}

	hot := res.Tenants["hot"]
	if hot.Delayed == 0 {
		t.Fatal("hot tenant was never throttled")
	}
	if hot.Shed == 0 {
		t.Fatal("tight queue bound never shed (scenario not exercising replay)")
	}
	if hot.Degrades == 0 {
		t.Fatal("hot tenant never degraded at 10x its rate")
	}
	if hot.Promotes != hot.Degrades {
		t.Fatalf("hot tenant degraded %d times but promoted %d: not exact again after the spike", hot.Degrades, hot.Promotes)
	}
	if hot.Delayed <= res.Tenants["steady"].Delayed {
		t.Fatal("the spike's queueing cost must land on the hot tenant")
	}
	for _, kind := range []string{"kind=degrade", "kind=promote"} {
		found := false
		for _, line := range bytes.Split(res.Decisions, []byte("\n")) {
			found = found || (bytes.Contains(line, []byte(kind)) && bytes.Contains(line, []byte("tenant=hot")))
		}
		if !found {
			t.Fatalf("decision trace misses the hot tenant's %s transition:\n%s", kind, res.Decisions)
		}
	}
	if j := res.Jain["spans"]; j < 0.9 {
		t.Fatalf("fairness did not recover: Jain = %.3f", j)
	}

	// The spike-free baseline is clean end to end.
	if bh := base.Tenants["hot"]; bh.Degrades != 0 || bh.Shed != 0 || base.Jain["spans"] < 0.95 {
		t.Fatalf("baseline run not clean: hot %+v, jain %.3f", bh, base.Jain["spans"])
	}

	// The overload response on the real receiver is deterministic.
	if !bytes.Equal(res.Decisions, again.Decisions) || !bytes.Equal(res.ResultLogs["spans"], again.ResultLogs["spans"]) {
		t.Fatal("two runs of the spike diverged (decision trace or result log)")
	}
}
