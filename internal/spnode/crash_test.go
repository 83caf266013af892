package spnode_test

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"jarvis/internal/agentnode"
	"jarvis/internal/checkpoint"
	"jarvis/internal/core"
	"jarvis/internal/ha"
	"jarvis/internal/plan"
	"jarvis/internal/spnode"
	"jarvis/internal/telemetry"
	"jarvis/internal/transport"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
)

// The crash-and-compare table (§IV-E): kill a role mid-run, restart or
// fail it over, and the durable result log must be byte-identical to an
// uncrashed run of the same query. Every SP is spnode.Open's and every
// agent agentnode.Open's, driven over loopback TCP, so the table proves
// the graph the binaries run. One reference run per query serves all of
// that query's rows.
//
// Beside each row's own checks, every run asserts that an unpromoted
// standby refuses an agent, that Crash returns within crashBound while
// an agent is connected, that Serve returns nil, and that no goroutine
// outlives the run.

const (
	dataEpochs  = 10 // a quiet tail follows, pushing the watermark past the 10 s window
	totalEpochs = 14
	// spEvery is every SP's snapshot cadence in applied epochs. Acks wait
	// for the snapshot that covers them, so after epoch e the durable
	// (and standby-durable) frontier is e rounded down to a multiple.
	spEvery = 2
	// agentEvery is every agent's cadence: an agent killed off-cadence
	// dies with an epoch shipped but not covered by its own snapshot.
	agentEvery = 3
	// spRestart is the epoch after whose step a killed SP comes back;
	// the agent buffers the epochs in between and replays them.
	spRestart = 9
	// A failover slower than this is a failure, not a slow runner (the
	// measured downtime, tens of milliseconds, is logged).
	downtimeBound = 10 * time.Second
	crashBound    = 5 * time.Second
)

// crashRow names the role killed after epoch at's apply and advance:
// "sp" restarts the SP from its directory at spRestart; "agent" reopens
// the agent from its directory; "primary" runs HA — a warm standby is
// promoted and the agent fails over, and with rejoin the stale primary
// comes back at its old term and must be fenced.
type crashRow struct {
	kill                string
	at                  int
	spAsync, agentAsync bool
	rejoin              bool
}

func (r crashRow) String() string {
	name := fmt.Sprintf("%s@%d", r.kill, r.at)
	if r.spAsync {
		name += "+sp-async"
	}
	if r.agentAsync {
		name += "+agent-async"
	}
	if r.rejoin {
		name += "+rejoin"
	}
	return name
}

type crashQuery struct {
	name  string
	query func() *plan.Query
	gen   func() func(int64, *wire.ColumnarBatch)
	rows  []crashRow
}

// torTable covers the ping generator's source IP and a peer subset, so
// T2TProbe's joins both hit and miss.
func torTable() *telemetry.ToRTable {
	ips := []uint32{workload.DefaultPingConfig(7).SrcIP}
	for i := 0; i < 2000; i++ {
		ips = append(ips, 0x0B000000+uint32(i))
	}
	return telemetry.NewToRTable(ips, 40)
}

func crashTable() []crashQuery {
	ping := func() func(int64, *wire.ColumnarBatch) {
		return workload.NewPingGen(workload.DefaultPingConfig(7)).NextWindowCols
	}
	// Kills at 7 and 11 bracket the window close at epoch 11: an early
	// kill leaves the standby to regenerate every row by replay; a kill
	// just after the close has the rows mirrored, and the mirrored log's
	// watermark must suppress their re-emission.
	failovers := []crashRow{{kill: "primary", at: 7}, {kill: "primary", at: 11}}
	return []crashQuery{
		{"S2SProbe", plan.S2SProbe, ping, append([]crashRow{
			{kill: "sp", at: 7}, {kill: "sp", at: 7, spAsync: true},
			{kill: "agent", at: 7}, {kill: "agent", at: 7, agentAsync: true},
			{kill: "primary", at: 7, rejoin: true},
		}, failovers...)},
		{"T2TProbe", func() *plan.Query { return plan.T2TProbe(torTable()) }, ping, append([]crashRow{
			{kill: "sp", at: 7}, {kill: "agent", at: 7},
		}, failovers...)},
		{"LogAnalytics", plan.LogAnalytics, func() func(int64, *wire.ColumnarBatch) {
			return workload.NewLogGen(workload.DefaultLogConfig(7)).NextWindowCols
		}, append([]crashRow{
			{kill: "sp", at: 7}, {kill: "agent", at: 7}, {kill: "agent", at: 7, agentAsync: true},
		}, failovers...)},
	}
}

func TestCrashByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("crash runs are not short")
	}
	for _, q := range crashTable() {
		t.Run(q.name, func(t *testing.T) {
			ref := run(t, q, crashRow{})
			if len(ref) == 0 {
				t.Fatal("uncrashed run produced no rows: the comparison is vacuous")
			}
			for _, r := range q.rows {
				t.Run(r.String(), func(t *testing.T) {
					if got := run(t, q, r); !bytes.Equal(got, ref) {
						t.Fatalf("result log diverged: %d bytes of rows vs %d", len(got), len(ref))
					}
				})
			}
		})
	}
}

// node is one served SP incarnation; Serve's result arrives on served.
type node struct {
	*spnode.Node
	dir    string
	served chan error
}

func serve(t *testing.T, cfg spnode.Config) *node {
	t.Helper()
	n, err := spnode.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- n.Serve(context.Background()) }()
	return &node{n, cfg.CheckpointDir, served}
}

func spConfig(q crashQuery, dir string, async bool) spnode.Config {
	return spnode.Config{
		Query: q.query(), Sources: []uint32{1}, CheckpointDir: dir, Async: async,
		Every: spEvery, Retain: checkpoint.DefaultRetain, Term: 1, Listen: "127.0.0.1:0",
	}
}

// crash kills the node, which must cut a live agent connection rather
// than wait for it.
func (n *node) crash(t *testing.T) {
	t.Helper()
	done := make(chan struct{})
	go func() { n.Crash(); close(done) }()
	select {
	case <-done:
	case <-time.After(crashBound):
		t.Fatal("Crash waited on a live agent connection")
	}
	if err := <-n.served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

func (n *node) close(t *testing.T) {
	t.Helper()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-n.served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// openPinned opens source 1's agent from dir with adaptation off and
// every load factor at 1, so an epoch re-run from a snapshot re-ships
// identical content, and returns the input generator fast-forwarded
// past the epochs the restored snapshot covers.
func openPinned(t *testing.T, q crashQuery, dir string, async bool) (*agentnode.Agent, func(int64, *wire.ColumnarBatch)) {
	t.Helper()
	a, err := agentnode.Open(agentnode.Config{
		SourceOptions: core.SourceOptions{ID: 1, BudgetFrac: 4, RateMbps: workload.PingmeshMbps10x},
		Query:         q.query(), MaxPending: 64,
		CheckpointDir: dir, Every: agentEvery, Async: async,
	})
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]float64, len(a.Source().Query().Ops))
	for i := range ones {
		ones[i] = 1
	}
	if err := a.Source().SetLoadFactors(ones); err != nil {
		t.Fatal(err)
	}
	gen := q.gen()
	var cb wire.ColumnarBatch
	for e := uint64(1); e <= a.Resume() && e <= dataEpochs; e++ {
		cb.Reset()
		gen(1_000_000, &cb)
	}
	return a, gen
}

// waitFor polls cond until it holds, failing with what after within.
func waitFor(t *testing.T, within time.Duration, cond func() bool, what func() string) {
	t.Helper()
	for deadline := time.Now().Add(within); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal(what())
		}
	}
}

// waitApplied waits for n to apply every epoch the agent shipped,
// re-dialing endpoints while the shipper is down: right after a kill the
// shipper may learn its socket is dead only when the EOF arrives, and an
// epoch written into the dead connection is re-driven by the replay.
func waitApplied(t *testing.T, n *node, ship *transport.DurableShipper, endpoints []string) {
	t.Helper()
	rc := n.Receiver()
	waitFor(t, 10*time.Second, func() bool {
		if !ship.Connected() {
			_, _ = ship.ConnectAny(endpoints)
		}
		return rc.AppliedSeq(1) >= ship.Seq()
	}, func() string {
		return fmt.Sprintf("SP never applied epoch %d (at %d)", ship.Seq(), rc.AppliedSeq(1))
	})
}

// canonicalBytes renders rows as their concatenated wire encodings, so
// byte identity is checked independent of frame boundaries.
func canonicalBytes(t *testing.T, rows telemetry.Batch) []byte {
	t.Helper()
	var buf []byte
	for _, rec := range rows {
		var err error
		if buf, err = wire.EncodeRecord(buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// failover kills the primary after epoch at and promotes the standby,
// returning when the kill happened and the cut the standby resumes at.
func failover(t *testing.T, pri, sb *node, ship *transport.DurableShipper, at int) (time.Time, uint64) {
	t.Helper()
	if at >= 11 {
		// The window closed on the primary: its rows must reach the mirror
		// before the kill, so the row exercises mirror plus replay dedup
		// rather than pure regeneration.
		waitFor(t, 10*time.Second, func() bool { return sb.Standby().Counters().Get(ha.CtrRowsMirrored) >= 1 },
			func() string { return "the standby mirrored no row before the kill" })
	}
	killAt := time.Now()
	pri.crash(t)
	if err := sb.Promote(); err != nil {
		t.Fatal(err)
	}
	if role, term := sb.Gate().Role(), sb.Gate().Term(); role != ha.RolePrimary || term != 2 {
		t.Fatalf("promoted standby is %s at term %d, want primary at 2", role, term)
	}
	// The promoted receiver must resume exactly at the last replicated
	// cut: one higher and a stalled epoch is discarded as a duplicate, one
	// lower and a covered epoch is applied twice.
	restored := sb.Receiver().AppliedSeq(1)
	if want := uint64(at - at%spEvery); restored != want {
		t.Fatalf("promoted standby resumes after epoch %d, want %d (the last replicated cut before the kill at %d)", restored, want, at)
	}
	if acked := ship.Acked(); acked > restored {
		t.Fatalf("agent was acked through epoch %d but the standby only covers %d", acked, restored)
	}
	return killAt, restored
}

// rejoin restarts the killed primary from its directory at its old term
// once the agent has failed over: a direct connect must fence it, and
// stickily, and the dialer must still settle on the promoted standby
// with the stale primary listed first.
func rejoin(t *testing.T, q crashQuery, dir string, sb *node, ship *transport.DurableShipper) *node {
	t.Helper()
	if term := ship.Term(); term < 2 {
		t.Fatalf("agent term = %d before rejoin, want ≥ 2", term)
	}
	stale := serve(t, spConfig(q, dir, false))
	staleAddr := stale.Addr().String()
	if err := ship.Connect(staleAddr); err == nil {
		t.Fatal("stale primary accepted a failed-over agent")
	}
	if role := stale.Gate().Role(); role != ha.RoleFenced {
		t.Fatalf("stale primary role = %v, want fenced", role)
	}
	if got := stale.Gate().Counters().Get(ha.CtrFenced); got != 1 {
		t.Fatalf("fenced counter = %d", got)
	}
	if err := ship.Connect(staleAddr); err == nil {
		t.Fatal("fenced primary accepted a hello")
	}
	if addr, err := ship.ConnectAny([]string{staleAddr, sb.Addr().String()}); err != nil || addr != sb.Addr().String() {
		t.Fatalf("dialer settled on %q (err %v), want the standby", addr, err)
	}
	return stale
}

// run drives one row (the zero row is the uncrashed reference) and
// returns the canonical bytes of the result log of the SP that ends it.
func run(t *testing.T, q crashQuery, r crashRow) []byte {
	t.Helper()
	before := runtime.NumGoroutine()
	agDir := t.TempDir()
	cfg := spConfig(q, t.TempDir(), r.spAsync)
	var sb *node
	if r.kill == "primary" {
		cfg.ReplListen = "127.0.0.1:0"
	}
	cur := serve(t, cfg) // the node agents are served by; nil while none is
	pri := cur
	endpoints := []string{cur.Addr().String()}
	if r.kill == "primary" {
		sbCfg := spConfig(q, t.TempDir(), false)
		sbCfg.Standby, sbCfg.Peer = true, pri.ReplAddr().String()
		sb = serve(t, sbCfg)
		if err := transport.NewDurableShipper(1, 0).Connect(sb.Addr().String()); err == nil {
			t.Fatal("an unpromoted standby admitted an agent")
		}
		waitFor(t, crashBound, func() bool { return sb.Standby().Connected() && pri.Publisher().Standbys() > 0 },
			func() string { return "standby never attached to the primary" })
		endpoints = append(endpoints, sb.Addr().String())
	}

	a, gen := openPinned(t, q, agDir, r.agentAsync)
	ship := a.Shipper()
	var (
		cb       wire.ColumnarBatch
		stale    *node
		killed   bool // a reopened agent re-runs epoch at
		killAt   time.Time
		restored uint64 // the promoted standby's applied frontier
	)
	for e := 1; e <= totalEpochs; e++ {
		cb.Reset()
		if e <= dataEpochs {
			gen(1_000_000, &cb)
		} else {
			a.Source().ObserveTime(int64(e) * 1_000_000)
		}
		if !ship.Connected() && cur != nil {
			if _, err := ship.ConnectAny(endpoints); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := a.Step(&cb, time.Time{}); err != nil {
			t.Fatal(err)
		}
		if r.kill == "sp" && e == spRestart {
			cur = serve(t, cfg)
			endpoints = []string{cur.Addr().String()}
		}
		if cur == nil {
			continue
		}
		waitApplied(t, cur, ship, endpoints)
		if r.kill == "primary" && e == r.at+1 {
			// Downtime: from the kill until the promoted standby has applied
			// every stalled epoch and the first new one.
			downtime := time.Since(killAt)
			t.Logf("kill at epoch %d: %d epoch(s) stalled, downtime %v", r.at, uint64(r.at)-restored, downtime)
			if downtime > downtimeBound {
				t.Errorf("failover downtime %v exceeds %v", downtime, downtimeBound)
			}
		}
		if _, err := cur.Advance(); err != nil {
			t.Fatal(err)
		}

		if e == r.at && !killed {
			killed = true
			switch r.kill {
			case "sp":
				cur.crash(t)
				cur = nil
			case "agent":
				// Sync saves are durable when Step returns; the crash drops
				// the async writer's queued ones, so an older snapshot may
				// be the newest.
				a.Crash()
				a, gen = openPinned(t, q, agDir, r.agentAsync)
				ship = a.Shipper()
				last, got := uint64(r.at-r.at%agentEvery), a.Resume()
				if got != last && (!r.agentAsync || got > last || got%agentEvery != 0) {
					t.Fatalf("reopened agent resumes after epoch %d, want the last cadence snapshot %d", got, last)
				}
				e = int(got)
			case "primary":
				killAt, restored = failover(t, pri, sb, ship, r.at)
				cur = sb
			}
		}
		if r.rejoin && e == r.at+2 {
			stale = rejoin(t, q, pri.dir, sb, ship)
			endpoints = []string{stale.Addr().String(), sb.Addr().String()}
		}
	}

	// Sanity: the fault exercised the recovery machinery.
	switch r.kill {
	case "sp":
		if got := ship.Counters().Get(transport.CtrReconnects); got < 2 {
			t.Fatalf("sp-kill run reconnected %d times, want ≥ 2", got)
		}
	case "agent":
		if got := cur.Receiver().Counters().Get(transport.CtrEpochsReplayed); got < 1 {
			t.Fatal("the SP dropped no re-shipped epoch: the crash exercised nothing")
		}
	case "primary":
		// Every epoch past the replicated cut was applied by the promoted
		// standby exactly once: no gap, and as many applies as epochs (a
		// duplicate is discarded and counted apart).
		if got, want := sb.Receiver().AppliedSeq(1), ship.Seq(); got != want {
			t.Fatalf("promoted standby applied through epoch %d, agent shipped %d", got, want)
		}
		if got, want := sb.Receiver().Counters().Get(transport.CtrEpochsApplied), int64(ship.Seq()-restored); got != want {
			t.Fatalf("promoted standby applied %d epochs, want %d (epochs %d..%d once each)", got, want, restored+1, ship.Seq())
		}
		if got := ship.Counters().Get(transport.CtrFailovers); got < 1 {
			t.Fatalf("agent recorded %d failovers, want ≥ 1", got)
		}
		sbc := sb.Standby().Counters()
		if got := sbc.Get(ha.CtrSnapshotsApplied); got < 1 {
			t.Fatalf("standby applied %d replicated snapshots, want ≥ 1", got)
		}
		if got := sbc.Get(ha.CtrRowsMirrored); r.at >= 11 && got < 1 {
			t.Fatalf("standby mirrored %d result rows, want ≥ 1", got)
		}
		if got := sbc.Get(ha.CtrFailovers); got != 1 {
			t.Fatalf("standby promotions = %d, want 1", got)
		}
		if term := ship.Term(); term != 2 {
			t.Fatalf("agent term = %d, want the promoted 2", term)
		}
		waitFor(t, crashBound, func() bool { return ship.Acked() > restored },
			func() string { return fmt.Sprintf("the promoted standby acked nothing past epoch %d", restored) })
	}
	if ship.Dropped() != 0 {
		t.Fatalf("replay buffer evicted %d unacked epochs", ship.Dropped())
	}

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	cur.close(t)
	if stale != nil {
		stale.crash(t)
	}
	rows, err := checkpoint.ReadResultLog(filepath.Join(cur.dir, "results.log"))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, crashBound, func() bool { return runtime.NumGoroutine() <= before },
		func() string { return fmt.Sprintf("%d goroutines outlived the run", runtime.NumGoroutine()-before) })
	return canonicalBytes(t, rows)
}
