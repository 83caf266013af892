// Cluster example: a primary stream processor, a warm standby and three
// data source agents run as separate goroutines connected over loopback
// TCP — the same wire protocol cmd/jarvis-sp and cmd/jarvis-agent speak
// across machines — with the high-availability subsystem (internal/ha)
// enabled end to end. Both SPs are built by spnode.Open, the assembly
// cmd/jarvis-sp runs, and every agent by agentnode.Open, the one
// cmd/jarvis-agent runs. The primary replicates its snapshot chain and
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
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"jarvis"
	"jarvis/internal/agentnode"
	"jarvis/internal/checkpoint"
	"jarvis/internal/ha"
	"jarvis/internal/obs"
	"jarvis/internal/spnode"
	"jarvis/internal/transport"
	"jarvis/internal/wire"
)

const (
	agents     = 3
	epochs     = 16
	dataEpochs = 11
)

// nodeConfig is what the primary and the standby share: the query, one
// source per agent, and a snapshot every 4 applied epochs.
func nodeConfig(dir string) spnode.Config {
	cfg := spnode.Config{
		Query: jarvis.S2SProbe(), CheckpointDir: dir,
		Every: 4, Retain: checkpoint.DefaultRetain, Listen: "127.0.0.1:0",
	}
	for id := uint32(1); id <= agents; id++ {
		cfg.Sources = append(cfg.Sources, id)
	}
	return cfg
}

// startPrimary brings up a primary over dir that replicates to standbys.
func startPrimary(dir string, term uint64) (*spnode.Node, error) {
	cfg := nodeConfig(dir)
	cfg.Term, cfg.ReplListen = term, "127.0.0.1:0"
	n, err := spnode.Open(cfg)
	if err != nil {
		return nil, err
	}
	if n.Restored() {
		fmt.Printf("primary restarted from snapshot (result log already holds %d rows)\n", n.ResultLog().Rows())
	}
	go n.Serve(context.Background())
	return n, nil
}

// startStandby brings up a warm standby syncing from the primary's
// replication address; its gate rejects agents until promotion.
func startStandby(dir, peer string) (*spnode.Node, error) {
	cfg := nodeConfig(dir)
	cfg.Standby, cfg.Peer = true, peer
	n, err := spnode.Open(cfg)
	if err != nil {
		return nil, err
	}
	go n.Serve(context.Background())
	return n, nil
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
	sb, err := startStandby(sbDir, pri.ReplAddr().String())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("primary on %s (replicating on %s, term 1), standby on %s\n",
		pri.Addr(), pri.ReplAddr(), sb.Addr())

	// endpoints is what every agent dials: primary first, standby second.
	var epMu sync.Mutex
	endpoints := []string{pri.Addr().String(), sb.Addr().String()}
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
	var active atomic.Pointer[spnode.Node]
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
			pri.Crash()
			if err := sb.Promote(); err != nil {
				log.Fatal(err)
			}
			downtime = time.Since(killStart)
			active.Store(sb)
			fmt.Printf("*** standby promoted to primary at term %d (replicated snapshot id %d, %d mirrored rows) ***\n\n",
				sb.Gate().Term(), sb.Standby().LastApplied(), sb.ResultLog().Rows())
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
			endpoints = []string{stale.Addr().String(), sb.Addr().String()}
			epMu.Unlock()
			fmt.Printf("*** old primary rejoined on %s at stale term 1 ***\n", stale.Addr())
			go func() {
				for stale.Gate().Role() != ha.RoleFenced {
					time.Sleep(20 * time.Millisecond)
				}
				fmt.Printf("*** stale primary fenced (%s) ***\n", stale.Gate().Counters())
				stale.Crash()
			}()
			rejoinAt = nil
		case <-done:
			time.Sleep(200 * time.Millisecond)
			sp := active.Load()
			if out, err := sp.Advance(); err == nil {
				rows += printRows(out, rows)
			}
			fmt.Printf("\nresult log on the promoted standby: %d rows, every row exactly once across the failover\n",
				sp.ResultLog().Rows())
			fmt.Printf("ha counters: %s\n", sp.Gate().Counters())
			printSummary(sp, downtime)
			if err := sp.Close(); err != nil {
				log.Fatal(err)
			}
			return
		case <-time.After(50 * time.Millisecond):
			if out, err := active.Load().Advance(); err == nil {
				rows += printRows(out, rows)
			}
		}
	}
}

// printSummary condenses the run into its headline numbers: how much
// work the surviving node applied vs. replayed, how long the cluster had
// no primary, and every adaptation decision the process recorded.
func printSummary(sp *spnode.Node, downtime time.Duration) {
	fmt.Println("--- summary ---")
	tc := sp.Receiver().Counters()
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
	agent, err := agentnode.Open(agentnode.Config{
		SourceOptions: jarvis.SourceOptions{ID: id, BudgetFrac: budget, RateMbps: 26.2, Adapt: true},
		Query:         jarvis.S2SProbe(),
	})
	if err != nil {
		return err
	}
	defer agent.Close()
	ship := agent.Shipper()
	if _, err := ship.ConnectAny(getEndpoints()); err != nil {
		return err
	}

	cfg := jarvis.DefaultPingConfig(uint64(id) * 17)
	cfg.SrcIP = 0x0A000000 + id
	gen := jarvis.NewPingGen(cfg)
	var cb wire.ColumnarBatch
	for e := 0; e < epochs; e++ {
		cb.Reset()
		if e < dataEpochs {
			gen.NextWindowCols(1_000_000, &cb)
		} else {
			agent.Source().ObserveTime(int64(e+1) * 1_000_000) // quiet tail closes windows
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
		if _, err := agent.Step(&cb, time.Time{}); err != nil {
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
