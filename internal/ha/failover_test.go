package ha_test

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"

	"jarvis/internal/agentnode"
	"jarvis/internal/checkpoint"
	"jarvis/internal/core"
	"jarvis/internal/ha"
	"jarvis/internal/obs"
	"jarvis/internal/plan"
	"jarvis/internal/spnode"
	"jarvis/internal/telemetry"
	"jarvis/internal/transport"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
)

// The failover chaos runs: on each of the paper's three queries, an
// agent ships sequenced epochs over real TCP to a primary SP that
// replicates its snapshot chain and result log to a warm standby.
// Mid-run the primary is killed, the standby is promoted (term bump),
// and the agent fails over via its multi-endpoint dialer, replaying the
// epochs the standby's replicated state does not cover. The standby's
// result log must be byte-identical to an uninterrupted single-SP run —
// mirrored prefix, replay-regenerated suffix, watermark dedup in
// between. A second test rejoins the stale primary and proves fencing.
// Every SP here is the production assembly (spnode.Open) and the agent
// is agentnode.Open's, so these runs prove the code the binaries run.

const (
	haDataEpochs  = 10
	haTotalEpochs = 14
	// Two kill points bracket the 10 s window close (which lands at epoch
	// 11, when the quiet tail pushes the watermark past the window):
	// killing early means the standby's entire output is regenerated by
	// replay; killing just after the close means the rows were emitted
	// and mirrored by the primary, the replayed epoch re-closes the
	// window, and the mirrored log's watermark must suppress the
	// re-emission.
	haKillEarly = 7
	haKillMid   = 11
	// Snapshot cadence of every SP in these runs, in applied epochs. Acks
	// are gated on the snapshot that covers them, so after epoch e the
	// standby-durable frontier is e rounded down to a multiple of this.
	haCadence = 2
	// A failover that takes longer than this is a failure, not a slow
	// runner: the bound is loose on purpose (the measured downtime, tens
	// of milliseconds on a laptop, is logged).
	haDowntimeBound = 10 * time.Second
)

type haCase struct {
	name  string
	query func() *plan.Query
	gen   func() func(int64, *wire.ColumnarBatch)
}

func haTable() *telemetry.ToRTable {
	cfg := workload.DefaultPingConfig(7)
	ips := []uint32{cfg.SrcIP}
	for i := 0; i < 2000; i++ {
		ips = append(ips, 0x0B000000+uint32(i))
	}
	return telemetry.NewToRTable(ips, 40)
}

func haCases() []haCase {
	pingGen := func() func(int64, *wire.ColumnarBatch) {
		return workload.NewPingGen(workload.DefaultPingConfig(7)).NextWindowCols
	}
	return []haCase{
		{name: "S2SProbe", query: plan.S2SProbe, gen: pingGen},
		{name: "T2TProbe", query: func() *plan.Query { return plan.T2TProbe(haTable()) }, gen: pingGen},
		{name: "LogAnalytics", query: plan.LogAnalytics, gen: func() func(int64, *wire.ColumnarBatch) {
			return workload.NewLogGen(workload.DefaultLogConfig(7)).NextWindowCols
		}},
	}
}

// spConfig is what every SP in these runs shares: one source, a
// snapshot every haCadence applied epochs, a primary's term 1 (a
// standby promotes to 2), and an agent listener.
func spConfig(q *plan.Query, dir string) spnode.Config {
	return spnode.Config{
		Query: q, Sources: []uint32{1}, CheckpointDir: dir,
		Every: haCadence, Retain: checkpoint.DefaultRetain, Term: 1, Listen: "127.0.0.1:0",
	}
}

// serve opens the node and serves it until the test closes or crashes it.
func serve(t *testing.T, cfg spnode.Config) *spnode.Node {
	t.Helper()
	n, err := spnode.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = n.Serve(context.Background()) }()
	return n
}

// openAgent opens source 1's agent deterministic (fixed factors, no
// adaptation), so replayed epochs re-ship identical content.
func openAgent(t *testing.T, tc haCase) *agentnode.Agent {
	t.Helper()
	agent, err := agentnode.Open(agentnode.Config{
		SourceOptions: core.SourceOptions{ID: 1, BudgetFrac: 4.0, RateMbps: workload.PingmeshMbps10x},
		Query:         tc.query(),
		MaxPending:    64,
	})
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]float64, len(agent.Source().Query().Ops))
	for i := range ones {
		ones[i] = 1
	}
	if err := agent.Source().SetLoadFactors(ones); err != nil {
		t.Fatal(err)
	}
	return agent
}

// stepEpoch generates epoch e (a quiet tail past haDataEpochs) and
// steps the agent, re-dialing endpoints first when disconnected.
func stepEpoch(t *testing.T, agent *agentnode.Agent, gen func(int64, *wire.ColumnarBatch), cb *wire.ColumnarBatch, e int, endpoints []string) {
	t.Helper()
	cb.Reset()
	if e <= haDataEpochs {
		gen(1_000_000, cb)
	} else {
		agent.Source().ObserveTime(int64(e) * 1_000_000)
	}
	if ship := agent.Shipper(); !ship.Connected() {
		if _, err := ship.ConnectAny(endpoints); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := agent.Step(cb, time.Time{}); err != nil {
		t.Fatal(err)
	}
}

func waitApplied(t *testing.T, rc *transport.Receiver, source uint32, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for rc.AppliedSeq(source) < seq {
		if time.Now().After(deadline) {
			t.Fatalf("SP never applied epoch %d (at %d)", seq, rc.AppliedSeq(source))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitAppliedFailover waits like waitApplied but keeps re-dialing the
// endpoint list: right after the primary dies, the shipper may only
// learn its socket is dead when the kernel delivers the EOF, so an epoch
// written into the dead connection is re-driven by the replay on the
// next ConnectAny.
func waitAppliedFailover(t *testing.T, ship *transport.DurableShipper, rc *transport.Receiver, seq uint64, endpoints []string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for rc.AppliedSeq(1) < seq {
		if time.Now().After(deadline) {
			t.Fatalf("standby never applied epoch %d (at %d)", seq, rc.AppliedSeq(1))
		}
		if !ship.Connected() {
			_, _ = ship.ConnectAny(endpoints)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitStandbySynced(t *testing.T, st *ha.Standby) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !st.Connected() {
		if time.Now().After(deadline) {
			t.Fatal("standby never attached to the primary")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitCounter(t *testing.T, cs *obs.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for cs.Get(name) < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter %s stuck at %d, want ≥ %d", name, cs.Get(name), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// canonicalBytes renders rows as their concatenated wire encodings so
// "byte-identical results" is checked independent of frame boundaries.
func canonicalBytes(t *testing.T, rows telemetry.Batch) []byte {
	t.Helper()
	var buf []byte
	var err error
	for _, rec := range rows {
		buf, err = wire.EncodeRecord(buf, rec)
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// advance flushes the node's closed windows, failing the test on error.
func advance(t *testing.T, n *spnode.Node) {
	t.Helper()
	if _, err := n.Advance(); err != nil {
		t.Fatal(err)
	}
}

// referenceRun is an uninterrupted single-SP run with the same recovery
// stack; its result log is the ground truth.
func referenceRun(t *testing.T, tc haCase) telemetry.Batch {
	t.Helper()
	dir := t.TempDir()
	sp := serve(t, spConfig(tc.query(), dir))
	agent := openAgent(t, tc)
	defer agent.Close()
	endpoints := []string{sp.Addr().String()}
	gen := tc.gen()
	var cb wire.ColumnarBatch
	for e := 1; e <= haTotalEpochs; e++ {
		stepEpoch(t, agent, gen, &cb, e, endpoints)
		waitApplied(t, sp.Receiver(), 1, agent.Shipper().Seq())
		advance(t, sp)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	rows, err := checkpoint.ReadResultLog(filepath.Join(dir, "results.log"))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// failoverRun kills the primary after killEpoch and fails the agent over
// to the promoted standby, returning the standby's result log. When
// rejoin is set, the stale primary is additionally restarted from its
// directory after the failover and the agent's connection attempt to it
// must be fenced.
func failoverRun(t *testing.T, tc haCase, killEpoch int, rejoin bool) telemetry.Batch {
	t.Helper()
	priDir, sbDir := t.TempDir(), t.TempDir()
	// The primary replicates to the standby and gates agent acks on its
	// durability; the standby's gate rejects agents until promotion.
	priCfg, sbCfg := spConfig(tc.query(), priDir), spConfig(tc.query(), sbDir)
	priCfg.ReplListen = "127.0.0.1:0"
	pri := serve(t, priCfg)
	sbCfg.Standby, sbCfg.Peer = true, pri.ReplAddr().String()
	sb := serve(t, sbCfg)
	waitStandbySynced(t, sb.Standby())

	agent := openAgent(t, tc)
	defer agent.Close()
	ship := agent.Shipper()
	endpoints := []string{pri.Addr().String(), sb.Addr().String()}
	if _, err := ship.ConnectAny(endpoints); err != nil {
		t.Fatal(err)
	}

	primaryUp, promoted := true, false
	var stale *spnode.Node
	var (
		killAt   time.Time
		restored uint64 // the standby's applied frontier at promotion
	)
	gen := tc.gen()
	var cb wire.ColumnarBatch
	for e := 1; e <= haTotalEpochs; e++ {
		stepEpoch(t, agent, gen, &cb, e, endpoints)
		if primaryUp {
			waitApplied(t, pri.Receiver(), 1, ship.Seq())
			advance(t, pri)
		} else if promoted {
			waitAppliedFailover(t, ship, sb.Receiver(), ship.Seq(), endpoints)
			if e == killEpoch+1 {
				// Downtime: from the kill until the promoted standby has
				// applied every stalled epoch and the first new one.
				downtime := time.Since(killAt)
				t.Logf("kill at epoch %d: %d epoch(s) stalled, downtime %v", killEpoch, uint64(killEpoch)-restored, downtime)
				if downtime > haDowntimeBound {
					t.Errorf("failover downtime %v exceeds %v", downtime, haDowntimeBound)
				}
			}
			advance(t, sb)
		}

		if e == killEpoch && primaryUp {
			if killEpoch >= haKillMid {
				// The window already closed on the primary: make sure its
				// emitted rows reached the mirror before the crash, so this
				// variant exercises mirror + replay-dedup rather than pure
				// regeneration.
				waitCounter(t, sb.Standby().Counters(), ha.CtrRowsMirrored, 1)
			}
			// Kill the primary and promote the warm standby; the agent's
			// next epoch finds the connection dead and fails over.
			killAt = time.Now()
			pri.Crash()
			primaryUp = false
			if err := sb.Promote(); err != nil {
				t.Fatal(err)
			}
			if role := sb.Gate().Role(); role != ha.RolePrimary {
				t.Fatalf("promoted standby is %s", role)
			}
			promoted = true
			// The stalled epochs are the ones shipped but not covered by a
			// replicated snapshot. The promoted receiver must resume exactly
			// at that cut — no acked epoch behind it, every stalled one still
			// in the agent's replay buffer: one higher and a stalled epoch is
			// discarded as a duplicate, one lower and a covered epoch is
			// applied on top of state that already contains it.
			restored = sb.Receiver().AppliedSeq(1)
			if want := uint64(killEpoch - killEpoch%haCadence); restored != want {
				t.Fatalf("promoted standby resumes after epoch %d, want %d (the last replicated cut before the kill at %d)", restored, want, killEpoch)
			}
			if acked := ship.Acked(); acked > restored {
				t.Fatalf("agent was acked through epoch %d but the standby only covers %d", acked, restored)
			}
		}
		if rejoin && e == killEpoch+2 && stale == nil {
			// By now the agent has failed over and adopted the promoted
			// term. The stale primary comes back from its own directory at
			// its old term; a direct connect must fence it.
			if term := ship.Term(); term < 2 {
				t.Fatalf("agent term = %d before rejoin, want ≥ 2", term)
			}
			stale = serve(t, spConfig(tc.query(), priDir))
			staleAddr := stale.Addr().String()
			if err := ship.Connect(staleAddr); err == nil {
				t.Fatal("stale primary accepted a failed-over agent")
			}
			if stale.Gate().Role() != ha.RoleFenced {
				t.Fatalf("stale primary role = %v, want fenced", stale.Gate().Role())
			}
			if got := stale.Gate().Counters().Get(ha.CtrFenced); got != 1 {
				t.Fatalf("fenced counter = %d", got)
			}
			// Fencing is sticky: a second attempt is rejected too.
			if err := ship.Connect(staleAddr); err == nil {
				t.Fatal("fenced primary accepted a hello")
			}
			// With the stale primary back in the endpoint list, the dialer
			// must still settle on the promoted standby.
			endpoints = []string{staleAddr, sb.Addr().String()}
			if addr, err := ship.ConnectAny(endpoints); err != nil || addr != sb.Addr().String() {
				t.Fatalf("dialer settled on %q (err %v), want the standby", addr, err)
			}
		}
	}
	waitAppliedFailover(t, ship, sb.Receiver(), ship.Seq(), endpoints)
	advance(t, sb)

	// Every epoch past the replicated cut — the stalled ones, replayed from
	// the agent's buffer, and the ones produced after the kill — was applied
	// by the promoted standby exactly once: no gap in the sequence, and as
	// many applies as epochs (a duplicate is discarded and counted apart).
	if got, want := sb.Receiver().AppliedSeq(1), ship.Seq(); got != want {
		t.Fatalf("promoted standby applied through epoch %d, agent shipped %d", got, want)
	}
	if got, want := sb.Receiver().Counters().Get(transport.CtrEpochsApplied), int64(ship.Seq()-restored); got != want {
		t.Fatalf("promoted standby applied %d epochs, want %d (epochs %d..%d once each)", got, want, restored+1, ship.Seq())
	}

	// Sanity: the failover actually exercised the machinery.
	if got := ship.Counters().Get(transport.CtrFailovers); got < 1 {
		t.Fatalf("agent recorded %d failovers, want ≥ 1", got)
	}
	sbc := sb.Standby().Counters()
	if got := sbc.Get(ha.CtrSnapshotsApplied); got < 1 {
		t.Fatalf("standby applied %d replicated snapshots, want ≥ 1", got)
	}
	if got := sbc.Get(ha.CtrRowsMirrored); killEpoch >= haKillMid && got < 1 {
		t.Fatalf("standby mirrored %d result rows, want ≥ 1", got)
	}
	if got := sbc.Get(ha.CtrFailovers); got != 1 {
		t.Fatalf("standby promotions = %d, want 1", got)
	}
	if ship.Dropped() != 0 {
		t.Fatalf("replay buffer evicted %d unacked epochs", ship.Dropped())
	}
	if term := ship.Term(); term < 2 {
		t.Fatalf("agent never adopted the promoted term (at %d)", term)
	}

	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	if stale != nil {
		stale.Crash()
	}
	rows, err := checkpoint.ReadResultLog(filepath.Join(sbDir, "results.log"))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestFailoverByteIdentical is the HA acceptance run: killing the
// primary mid-run and failing over to the warm standby yields a standby
// result log byte-identical to an uninterrupted run, on all three
// paper queries.
func TestFailoverByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("failover chaos runs are not short")
	}
	for _, tc := range haCases() {
		t.Run(tc.name, func(t *testing.T) {
			ref := referenceRun(t, tc)
			if len(ref) == 0 {
				t.Fatal("uninterrupted run produced no results — comparison is vacuous")
			}
			refBytes := canonicalBytes(t, ref)
			for _, kill := range []int{haKillEarly, haKillMid} {
				got := failoverRun(t, tc, kill, false)
				if !bytes.Equal(refBytes, canonicalBytes(t, got)) {
					t.Fatalf("failover at epoch %d diverged: %d rows vs %d reference rows",
						kill, len(got), len(ref))
				}
			}
		})
	}
}

// TestSplitBrainStalePrimaryFenced reruns the failover with the dead
// primary rejoining at its old term: the agent's hello (carrying the
// promoted term) fences it, and the output still has no duplicated or
// reordered emissions. Run under -race in CI — the fencing decision
// races agent reconnects by design.
func TestSplitBrainStalePrimaryFenced(t *testing.T) {
	if testing.Short() {
		t.Skip("failover chaos runs are not short")
	}
	tc := haCases()[0]
	ref := referenceRun(t, tc)
	if len(ref) == 0 {
		t.Fatal("uninterrupted run produced no results")
	}
	got := failoverRun(t, tc, haKillEarly, true)
	if !bytes.Equal(canonicalBytes(t, ref), canonicalBytes(t, got)) {
		t.Fatalf("split-brain run diverged: %d rows vs %d reference rows", len(got), len(ref))
	}
}
