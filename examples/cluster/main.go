// Cluster example: a primary stream processor, a warm standby and three
// data source agents run as separate goroutines connected over loopback
// TCP — the same wire protocol cmd/jarvis-sp and cmd/jarvis-agent speak
// across machines — with the high-availability subsystem (internal/ha)
// enabled end to end. The primary replicates its snapshot chain and
// result log to the standby and withholds agent acks until the standby
// confirms durability; each agent ships sequenced epochs through a
// durable shipper with a multi-endpoint failover dialer.
//
// Mid-run the primary is killed: the standby promotes itself with a
// higher fencing term, the agents fail over to it and replay every epoch
// replication did not cover, and the standby's mirrored result log
// continues exactly once — no row lost, duplicated or reordered. The
// old primary then rejoins at its stale term and is fenced the moment a
// failed-over agent says hello.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"jarvis"
	"jarvis/internal/checkpoint"
	"jarvis/internal/ha"
	"jarvis/internal/obs"
	"jarvis/internal/transport"
)

const (
	agents     = 3
	epochs     = 16
	dataEpochs = 11
)

// spNode is one SP incarnation: engine + receiver + gate, with the
// recovery manager and (primary role) replication publisher on top.
type spNode struct {
	rc       *transport.Receiver
	rm       *checkpoint.SPRecovery
	rlog     *checkpoint.ResultLog
	gate     *ha.Gate
	pub      *ha.Publisher
	st       *ha.Standby
	srv      *transport.Server
	addr     string
	replAddr string
	cancel   context.CancelFunc
}

// startPrimary brings up a primary over dir that replicates to standbys.
func startPrimary(dir string, term uint64) (*spNode, error) {
	proc, err := jarvis.NewProcessor(jarvis.S2SProbe())
	if err != nil {
		return nil, err
	}
	store, err := checkpoint.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	rlog, err := checkpoint.OpenResultLog(dir + "/results.log")
	if err != nil {
		return nil, err
	}
	rc := transport.NewReceiver(proc.Engine())
	gate := ha.NewGate(ha.RolePrimary, term, nil)
	rc.SetHelloGate(gate)
	rm := checkpoint.NewSPRecovery(store, rlog, proc.Engine(), rc, 4)
	pub := ha.NewPublisher(store, dir+"/results.log", term, gate.Counters())
	rm.SetReplicator(pub, 0)
	if restored, err := rm.Restore(); err != nil {
		return nil, err
	} else if restored {
		fmt.Printf("primary restarted from snapshot (result log already holds %d rows)\n", rlog.Rows())
	}
	for id := uint32(1); id <= agents; id++ {
		rc.RegisterSource(id)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := transport.NewServer(rc)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { _ = srv.Serve(ctx, ln) }()
	go func() { _ = pub.Serve(ctx, rln) }()
	return &spNode{
		rc: rc, rm: rm, rlog: rlog, gate: gate, pub: pub, srv: srv,
		addr: ln.Addr().String(), replAddr: rln.Addr().String(), cancel: cancel,
	}, nil
}

// startStandby brings up a warm standby syncing from the primary's
// replication address; its gate rejects agents until promotion.
func startStandby(dir, peer string) (*spNode, error) {
	proc, err := jarvis.NewProcessor(jarvis.S2SProbe())
	if err != nil {
		return nil, err
	}
	st, err := ha.NewStandby(proc, dir, nil)
	if err != nil {
		return nil, err
	}
	gate := ha.NewGate(ha.RoleStandby, 0, st.Counters())
	rc := transport.NewReceiver(proc.Engine())
	rc.SetHelloGate(gate)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := transport.NewServer(rc)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { _ = srv.Serve(ctx, ln) }()
	go st.Run(ctx, peer)
	return &spNode{
		rc: rc, gate: gate, st: st, srv: srv,
		addr: ln.Addr().String(), cancel: cancel,
	}, nil
}

// promote fails the standby over: adopt the warm shadow engine and bump
// the fencing term.
func (n *spNode) promote() error {
	rm, err := n.st.Promote(n.rc, 4)
	if err != nil {
		return err
	}
	n.rm = rm
	n.rlog = n.st.ResultLog()
	n.gate.Promote(n.st.NextTerm())
	return nil
}

func (n *spNode) stop() {
	n.cancel()
	_ = n.srv.Close()
	if n.pub != nil {
		_ = n.pub.Close()
	}
	if n.rm != nil {
		_ = n.rm.Close()
	}
	if n.rlog != nil {
		_ = n.rlog.Close()
	}
}

func main() {
	priDir, err := os.MkdirTemp("", "jarvis-ha-primary-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(priDir)
	sbDir, err := os.MkdirTemp("", "jarvis-ha-standby-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(sbDir)

	pri, err := startPrimary(priDir, 1)
	if err != nil {
		log.Fatal(err)
	}
	sb, err := startStandby(sbDir, pri.replAddr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("primary on %s (replicating on %s, term 1), standby on %s\n",
		pri.addr, pri.replAddr, sb.addr)

	// endpoints is what every agent dials: primary first, standby second.
	var epMu sync.Mutex
	endpoints := []string{pri.addr, sb.addr}
	getEndpoints := func() []string {
		epMu.Lock()
		defer epMu.Unlock()
		return append([]string(nil), endpoints...)
	}

	var wg sync.WaitGroup
	budgets := []float64{0.9, 0.5, 0.3}
	for i := 0; i < agents; i++ {
		id := uint32(i + 1)
		wg.Add(1)
		go func(id uint32, budget float64) {
			defer wg.Done()
			if err := runAgent(getEndpoints, id, budget); err != nil {
				log.Printf("agent %d: %v", id, err)
			}
		}(id, budgets[i])
	}

	// Collect results from whichever node currently holds the primary
	// role — and kill the primary partway through.
	var active atomic.Pointer[spNode]
	active.Store(pri)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	rows := 0
	killAt := time.After(400 * time.Millisecond)
	var rejoinAt <-chan time.Time
	var downtime time.Duration
	for {
		select {
		case <-killAt:
			fmt.Println("\n*** killing the primary mid-run ***")
			killStart := time.Now()
			pri.stop()
			if err := sb.promote(); err != nil {
				log.Fatal(err)
			}
			downtime = time.Since(killStart)
			active.Store(sb)
			fmt.Printf("*** standby promoted to primary at term %d (replicated snapshot id %d, %d mirrored rows) ***\n\n",
				sb.gate.Term(), sb.st.LastApplied(), sb.st.ResultLog().Rows())
			killAt = nil
			rejoinAt = time.After(300 * time.Millisecond)
		case <-rejoinAt:
			// The dead primary comes back from its own directory at its old
			// term; the failed-over agents' hellos carry term 2, so it
			// fences itself instead of serving a second split-brain output.
			stale, err := startPrimary(priDir, 1)
			if err != nil {
				log.Fatal(err)
			}
			epMu.Lock()
			endpoints = []string{stale.addr, sb.addr}
			epMu.Unlock()
			fmt.Printf("*** old primary rejoined on %s at stale term 1 ***\n", stale.addr)
			go func() {
				for stale.gate.Role() != ha.RoleFenced {
					time.Sleep(20 * time.Millisecond)
				}
				fmt.Printf("*** stale primary fenced (%s) ***\n", stale.gate.Counters())
				stale.stop()
			}()
			rejoinAt = nil
		case <-done:
			time.Sleep(200 * time.Millisecond)
			sp := active.Load()
			if out, err := sp.rm.Advance(); err == nil {
				rows += printRows(out, rows)
			}
			fmt.Printf("\nresult log on the promoted standby: %d rows, every row exactly once across the failover\n",
				sp.rlog.Rows())
			fmt.Printf("ha counters: %s\n", sp.gate.Counters())
			printSummary(sp, downtime)
			sp.stop()
			return
		case <-time.After(50 * time.Millisecond):
			sp := active.Load()
			if sp.rm == nil {
				continue
			}
			if out, err := sp.rm.Advance(); err == nil {
				rows += printRows(out, rows)
			}
		}
	}
}

// printSummary condenses the run into its headline numbers: how much
// work the surviving node applied vs. replayed, how long the cluster had
// no primary, and every adaptation decision the process recorded.
func printSummary(sp *spNode, downtime time.Duration) {
	fmt.Println("--- summary ---")
	tc := sp.rc.Counters()
	fmt.Printf("promoted node: %d epochs applied, %d replayed (deduplicated), %d hellos rejected\n",
		tc.Get(transport.CtrEpochsApplied), tc.Get(transport.CtrEpochsReplayed), tc.Get(transport.CtrHellosRejected))
	fmt.Printf("failover downtime (kill to promoted): %v\n", downtime)
	byKind := map[string]int{}
	for _, d := range obs.Decisions().Recent(0) {
		byKind[d.Kind]++
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Printf("decision trace: %d events", obs.Decisions().Total())
	for _, k := range kinds {
		fmt.Printf("  %s=%d", k, byKind[k])
	}
	fmt.Println()
}

func runAgent(getEndpoints func() []string, id uint32, budget float64) error {
	src, err := jarvis.NewSource(jarvis.S2SProbe(), jarvis.SourceOptions{
		ID:         id,
		BudgetFrac: budget,
		RateMbps:   26.2,
		Adapt:      true,
	})
	if err != nil {
		return err
	}
	ship := transport.NewDurableShipper(id, 0)
	if _, err := ship.ConnectAny(getEndpoints()); err != nil {
		return err
	}
	defer ship.Close()

	cfg := jarvis.DefaultPingConfig(uint64(id) * 17)
	cfg.SrcIP = 0x0A000000 + id
	gen := jarvis.NewPingGen(cfg)
	for e := 0; e < epochs; e++ {
		var batch jarvis.Batch
		if e < dataEpochs {
			batch = gen.NextWindow(1_000_000)
		} else {
			src.ObserveTime(int64(e+1) * 1_000_000) // quiet tail closes windows
		}
		res, err := src.RunEpoch(batch)
		if err != nil {
			return err
		}
		if e == 13 && id == 1 {
			// Agent 1's connection flaps and it re-dials its configured
			// primary first — by now the rejoined stale primary. Its hello
			// carries the promoted term, so the stale primary fences itself
			// and the failover dialer settles back on the real primary.
			_ = ship.Close()
			if eps := getEndpoints(); len(eps) > 0 {
				if err := ship.Connect(eps[0]); err != nil {
					fmt.Printf("agent %d: configured primary %s refused the hello (%v)\n", id, eps[0], err)
				}
			}
		}
		if !ship.Connected() {
			if addr, err := ship.ConnectAny(getEndpoints()); err == nil {
				fmt.Printf("agent %d: failed over to %s (term %d), replaying unacked epochs\n",
					id, addr, ship.Term())
			}
		}
		if err := ship.ShipEpoch(res); err != nil {
			return err
		}
		time.Sleep(60 * time.Millisecond) // pace the demo so the outage lands mid-run
	}
	fmt.Printf("agent %d (budget %2.0f%%): done at term %d, %d/%d epochs acked, %d failovers\n",
		id, budget*100, ship.Term(), ship.Acked(), ship.Seq(),
		ship.Counters().Get(transport.CtrFailovers))
	return nil
}

func printRows(batch jarvis.Batch, already int) int {
	for i, r := range batch {
		if already+i >= 6 {
			break
		}
		row := r.Data.(*jarvis.AggRow)
		fmt.Printf("  result: window %d pair %s count %d avg %.0fµs\n",
			row.Window, row.Key.String(), row.Count, row.Avg())
	}
	return len(batch)
}
