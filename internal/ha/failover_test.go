package ha

import (
	"bytes"
	"context"
	"net"
	"path/filepath"
	"testing"
	"time"

	"jarvis/internal/checkpoint"
	"jarvis/internal/core"
	"jarvis/internal/obs"
	"jarvis/internal/plan"
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
	gen   func() func(int64) telemetry.Batch
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
	pingGen := func() func(int64) telemetry.Batch {
		g := workload.NewPingGen(workload.DefaultPingConfig(7))
		return g.NextWindow
	}
	return []haCase{
		{name: "S2SProbe", query: plan.S2SProbe, gen: pingGen},
		{name: "T2TProbe", query: func() *plan.Query { return plan.T2TProbe(haTable()) }, gen: pingGen},
		{name: "LogAnalytics", query: plan.LogAnalytics, gen: func() func(int64) telemetry.Batch {
			g := workload.NewLogGen(workload.DefaultLogConfig(7))
			return g.NextWindow
		}},
	}
}

// primaryNode is one primary SP incarnation: engine + receiver + gate +
// recovery manager, optionally replicating to standbys.
type primaryNode struct {
	rc       *transport.Receiver
	rm       *checkpoint.SPRecovery
	rlog     *checkpoint.ResultLog
	gate     *Gate
	pub      *Publisher
	srv      *transport.Server
	addr     string
	replAddr string
	cancel   context.CancelFunc
}

// startPrimary brings up a primary over dir at the given term. With
// repl, a replication listener serves standbys and agent acks are gated
// on standby durability.
func startPrimary(t *testing.T, q *plan.Query, dir string, term uint64, repl bool) *primaryNode {
	t.Helper()
	proc, err := core.NewProcessor(q)
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rlog, err := checkpoint.OpenResultLog(filepath.Join(dir, "results.log"))
	if err != nil {
		t.Fatal(err)
	}
	rc := transport.NewReceiver(proc.Engine())
	gate := NewGate(RolePrimary, term, nil)
	rc.SetHelloGate(gate)
	rm := checkpoint.NewSPRecovery(store, rlog, proc.Engine(), rc, haCadence)
	if _, err := rm.Restore(); err != nil {
		t.Fatal(err)
	}
	rc.RegisterSource(1)
	n := &primaryNode{rc: rc, rm: rm, rlog: rlog, gate: gate}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	n.addr = ln.Addr().String()
	n.srv = transport.NewServer(rc)
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	go func() { _ = n.srv.Serve(ctx, ln) }()
	if repl {
		rln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n.replAddr = rln.Addr().String()
		n.pub = NewPublisher(store, filepath.Join(dir, "results.log"), term, gate.Counters())
		rm.SetReplicator(n.pub, 10*time.Second)
		go func() { _ = n.pub.Serve(ctx, rln) }()
	}
	return n
}

func (n *primaryNode) stop() {
	n.cancel()
	_ = n.srv.Close()
	if n.pub != nil {
		_ = n.pub.Close()
	}
	_ = n.rm.Close()
	_ = n.rlog.Close()
}

// standbyNode is the warm standby: shadow engine + receiver whose gate
// rejects agents until promotion.
type standbyNode struct {
	st        *Standby
	rc        *transport.Receiver
	gate      *Gate
	rm        *checkpoint.SPRecovery // set at promotion
	srv       *transport.Server
	addr      string
	cancel    context.CancelFunc
	runCancel context.CancelFunc
}

func startStandby(t *testing.T, q *plan.Query, dir, primaryReplAddr string) *standbyNode {
	t.Helper()
	proc, err := core.NewProcessor(q)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStandby(proc, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	gate := NewGate(RoleStandby, 0, st.Counters())
	rc := transport.NewReceiver(proc.Engine())
	rc.SetHelloGate(gate)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(rc)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { _ = srv.Serve(ctx, ln) }()
	runCtx, runCancel := context.WithCancel(context.Background())
	go st.Run(runCtx, primaryReplAddr)
	return &standbyNode{
		st: st, rc: rc, gate: gate, srv: srv,
		addr: ln.Addr().String(), cancel: cancel, runCancel: runCancel,
	}
}

// promote fails the standby over: stop syncing, adopt the warm shadow,
// bump the term.
func (n *standbyNode) promote(t *testing.T) {
	t.Helper()
	n.runCancel()
	rm, err := n.st.Promote(n.rc, haCadence)
	if err != nil {
		t.Fatal(err)
	}
	n.rm = rm
	if !n.gate.Promote(n.st.NextTerm()) {
		t.Fatal("gate promotion refused")
	}
}

func (n *standbyNode) stop() {
	n.runCancel()
	n.cancel()
	_ = n.srv.Close()
	if n.rm != nil {
		_ = n.rm.Close()
	}
	_ = n.st.ResultLog().Close()
}

// haAgent runs the source pipeline deterministically (fixed factors, no
// adaptation) so replayed epochs re-ship identical content.
type haAgent struct {
	src  *core.Source
	ship *transport.DurableShipper
	gen  func(int64) telemetry.Batch
}

func startHAAgent(t *testing.T, tc haCase) *haAgent {
	t.Helper()
	src, err := core.NewSource(tc.query(), core.SourceOptions{
		BudgetFrac: 4.0,
		RateMbps:   workload.PingmeshMbps10x,
		Adapt:      false,
	})
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]float64, len(src.Query().Ops))
	for i := range ones {
		ones[i] = 1
	}
	if err := src.SetLoadFactors(ones); err != nil {
		t.Fatal(err)
	}
	return &haAgent{src: src, ship: transport.NewDurableShipper(1, 64), gen: tc.gen()}
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
func waitAppliedFailover(t *testing.T, agent *haAgent, rc *transport.Receiver, seq uint64, endpoints []string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for rc.AppliedSeq(1) < seq {
		if time.Now().After(deadline) {
			t.Fatalf("standby never applied epoch %d (at %d)", seq, rc.AppliedSeq(1))
		}
		if !agent.ship.Connected() {
			_, _ = agent.ship.ConnectAny(endpoints)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitStandbySynced(t *testing.T, st *Standby) {
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

// referenceRun is an uninterrupted single-SP run with the same recovery
// stack; its result log is the ground truth.
func referenceRun(t *testing.T, tc haCase) telemetry.Batch {
	t.Helper()
	dir := t.TempDir()
	sp := startPrimary(t, tc.query(), dir, 1, false)
	agent := startHAAgent(t, tc)
	if _, err := agent.ship.ConnectAny([]string{sp.addr}); err != nil {
		t.Fatal(err)
	}
	for e := 1; e <= haTotalEpochs; e++ {
		var input telemetry.Batch
		if e <= haDataEpochs {
			input = agent.gen(1_000_000)
		} else {
			agent.src.ObserveTime(int64(e) * 1_000_000)
		}
		res, err := agent.src.RunEpoch(input)
		if err != nil {
			t.Fatal(err)
		}
		if err := agent.ship.ShipEpoch(res); err != nil {
			t.Fatal(err)
		}
		waitApplied(t, sp.rc, 1, agent.ship.Seq())
		if _, err := sp.rm.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	sp.stop()
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
	pri := startPrimary(t, tc.query(), priDir, 1, true)
	sb := startStandby(t, tc.query(), sbDir, pri.replAddr)
	waitStandbySynced(t, sb.st)

	agent := startHAAgent(t, tc)
	endpoints := []string{pri.addr, sb.addr}
	if _, err := agent.ship.ConnectAny(endpoints); err != nil {
		t.Fatal(err)
	}

	primaryUp := true
	var stale *primaryNode
	var (
		killAt   time.Time
		restored uint64 // the standby's applied frontier at promotion
	)
	for e := 1; e <= haTotalEpochs; e++ {
		var input telemetry.Batch
		if e <= haDataEpochs {
			input = agent.gen(1_000_000)
		} else {
			agent.src.ObserveTime(int64(e) * 1_000_000)
		}
		res, err := agent.src.RunEpoch(input)
		if err != nil {
			t.Fatal(err)
		}
		if !agent.ship.Connected() {
			if _, err := agent.ship.ConnectAny(endpoints); err != nil {
				t.Fatal(err)
			}
		}
		if err := agent.ship.ShipEpoch(res); err != nil {
			t.Fatal(err)
		}
		if primaryUp {
			waitApplied(t, pri.rc, 1, agent.ship.Seq())
			if _, err := pri.rm.Advance(); err != nil {
				t.Fatal(err)
			}
		} else if sb.rm != nil {
			waitAppliedFailover(t, agent, sb.rc, agent.ship.Seq(), endpoints)
			if e == killEpoch+1 {
				// Downtime: from the kill until the promoted standby has
				// applied every stalled epoch and the first new one.
				downtime := time.Since(killAt)
				t.Logf("kill at epoch %d: %d epoch(s) stalled, downtime %v", killEpoch, uint64(killEpoch)-restored, downtime)
				if downtime > haDowntimeBound {
					t.Errorf("failover downtime %v exceeds %v", downtime, haDowntimeBound)
				}
			}
			if _, err := sb.rm.Advance(); err != nil {
				t.Fatal(err)
			}
		}

		if e == killEpoch && primaryUp {
			if killEpoch >= haKillMid {
				// The window already closed on the primary: make sure its
				// emitted rows reached the mirror before the crash, so this
				// variant exercises mirror + replay-dedup rather than pure
				// regeneration.
				waitCounter(t, sb.st.Counters(), CtrRowsMirrored, 1)
			}
			// Kill the primary and promote the warm standby; the agent's
			// next epoch finds the connection dead and fails over.
			killAt = time.Now()
			pri.stop()
			primaryUp = false
			sb.promote(t)
			// The stalled epochs are the ones shipped but not covered by a
			// replicated snapshot. The promoted receiver must resume exactly
			// at that cut — no acked epoch behind it, every stalled one still
			// in the agent's replay buffer: one higher and a stalled epoch is
			// discarded as a duplicate, one lower and a covered epoch is
			// applied on top of state that already contains it.
			restored = sb.rc.AppliedSeq(1)
			if want := uint64(killEpoch - killEpoch%haCadence); restored != want {
				t.Fatalf("promoted standby resumes after epoch %d, want %d (the last replicated cut before the kill at %d)", restored, want, killEpoch)
			}
			if acked := agent.ship.Acked(); acked > restored {
				t.Fatalf("agent was acked through epoch %d but the standby only covers %d", acked, restored)
			}
		}
		if rejoin && e == killEpoch+2 && stale == nil {
			// By now the agent has failed over and adopted the promoted
			// term. The stale primary comes back from its own directory at
			// its old term; a direct connect must fence it.
			if term := agent.ship.Term(); term < 2 {
				t.Fatalf("agent term = %d before rejoin, want ≥ 2", term)
			}
			stale = startPrimary(t, tc.query(), priDir, 1, false)
			if err := agent.ship.Connect(stale.addr); err == nil {
				t.Fatal("stale primary accepted a failed-over agent")
			}
			if stale.gate.Role() != RoleFenced {
				t.Fatalf("stale primary role = %v, want fenced", stale.gate.Role())
			}
			if got := stale.gate.Counters().Get(CtrFenced); got != 1 {
				t.Fatalf("fenced counter = %d", got)
			}
			// Fencing is sticky: a second attempt is rejected too.
			if err := agent.ship.Connect(stale.addr); err == nil {
				t.Fatal("fenced primary accepted a hello")
			}
			// With the stale primary back in the endpoint list, the dialer
			// must still settle on the promoted standby.
			endpoints = []string{stale.addr, sb.addr}
			if addr, err := agent.ship.ConnectAny(endpoints); err != nil || addr != sb.addr {
				t.Fatalf("dialer settled on %q (err %v), want the standby", addr, err)
			}
		}
	}
	waitAppliedFailover(t, agent, sb.rc, agent.ship.Seq(), endpoints)
	if _, err := sb.rm.Advance(); err != nil {
		t.Fatal(err)
	}
	if err := sb.rm.Flush(); err != nil {
		t.Fatal(err)
	}

	// Every epoch past the replicated cut — the stalled ones, replayed from
	// the agent's buffer, and the ones produced after the kill — was applied
	// by the promoted standby exactly once: no gap in the sequence, and as
	// many applies as epochs (a duplicate is discarded and counted apart).
	if got, want := sb.rc.AppliedSeq(1), agent.ship.Seq(); got != want {
		t.Fatalf("promoted standby applied through epoch %d, agent shipped %d", got, want)
	}
	if got, want := sb.rc.Counters().Get(transport.CtrEpochsApplied), int64(agent.ship.Seq()-restored); got != want {
		t.Fatalf("promoted standby applied %d epochs, want %d (epochs %d..%d once each)", got, want, restored+1, agent.ship.Seq())
	}

	// Sanity: the failover actually exercised the machinery.
	if got := agent.ship.Counters().Get(transport.CtrFailovers); got < 1 {
		t.Fatalf("agent recorded %d failovers, want ≥ 1", got)
	}
	if got := sb.st.Counters().Get(CtrSnapshotsApplied); got < 1 {
		t.Fatalf("standby applied %d replicated snapshots, want ≥ 1", got)
	}
	if got := sb.st.Counters().Get(CtrRowsMirrored); killEpoch >= haKillMid && got < 1 {
		t.Fatalf("standby mirrored %d result rows, want ≥ 1", got)
	}
	if got := sb.st.Counters().Get(CtrFailovers); got != 1 {
		t.Fatalf("standby promotions = %d, want 1", got)
	}
	if agent.ship.Dropped() != 0 {
		t.Fatalf("replay buffer evicted %d unacked epochs", agent.ship.Dropped())
	}
	if term := agent.ship.Term(); term < 2 {
		t.Fatalf("agent never adopted the promoted term (at %d)", term)
	}

	sb.stop()
	if stale != nil {
		stale.stop()
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
