// Command jarvis-agent runs a data source agent: it generates (or would
// ingest) monitoring data, executes the query's source-side replica
// within a CPU budget under the adaptive Jarvis runtime, and ships
// drains, partial aggregates and watermarks to a stream processor over
// the sequenced, replayable transport — epochs buffer while the SP is
// unreachable and replay on reconnect, so every epoch is applied exactly
// once.
//
// With -checkpoint-dir the agent also takes epoch-aligned durable
// snapshots of its pipeline state, load factors and replay buffer every
// -checkpoint-every epochs, and resumes from the newest snapshot after a
// restart. -checkpoint-async moves the durable save off the epoch path
// onto a writer goroutine (the capture stays epoch-aligned), so
// every-epoch checkpointing does not stall shipping.
//
// -sp accepts a comma-separated endpoint list (primary plus warm
// standbys, see internal/ha): on connection loss the agent walks the
// list until an SP admits its hello, then resumes and replays as usual —
// a promoted standby deduplicates by sequence, a stale or unpromoted SP
// rejects the hello and the dialer moves on.
//
// The agent generates epochs as SoA columns, so records are built only
// where the plan has no columnar kernel, and flate-compresses its
// columnar data frames (-wire-compress=false ships them plain); an SP
// whose ack does not advertise compression is refused at connect.
//
// -tenant and -class declare the agent's identity to an SP running
// admission control: the hello carries both as trailing extensions, and
// acks carry back a pacing hint that the agent honors between epochs
// when it is over its class-weighted budget (see internal/admission).
//
// Usage:
//
//	jarvis-agent -sp 10.0.0.1:7700,10.0.0.2:7800 -id 1 -query s2s \
//	    -budget 0.6 -epochs 60 -checkpoint-dir /var/lib/jarvis/agent1
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"jarvis/internal/admission"
	"jarvis/internal/agentnode"
	"jarvis/internal/checkpoint"
	"jarvis/internal/obs"
	"jarvis/internal/plan"
	"jarvis/internal/transport"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
)

type config struct {
	node                    agentnode.Config // the agent assembly's flags; run adds the id, query and rate
	sp, query               string
	id                      uint
	epochs                  int
	realtime                bool
	obsListen, obsDecisions string
}

// newFlags registers every jarvis-agent flag on one FlagSet and returns
// it with the config the flags parse into.
func newFlags(name string) (*flag.FlagSet, *config) {
	cfg := &config{}
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.StringVar(&cfg.sp, "sp", "127.0.0.1:7700", "stream processor endpoints, comma-separated (primary first, then standbys)")
	fs.UintVar(&cfg.id, "id", 1, "source id")
	fs.StringVar(&cfg.query, "query", "s2s", "query to run (s2s|t2t|log|spans)")
	fs.Float64Var(&cfg.node.BudgetFrac, "budget", 0.6, "CPU budget as a fraction of one core")
	fs.IntVar(&cfg.epochs, "epochs", 60, "epochs to run (0 = forever)")
	fs.BoolVar(&cfg.realtime, "realtime", false, "pace epochs at one per second of wall time")
	fs.StringVar(&cfg.node.CheckpointDir, "checkpoint-dir", "", "durable snapshot directory (empty = no checkpointing)")
	fs.IntVar(&cfg.node.Every, "checkpoint-every", checkpoint.DefaultEvery, "epochs between durable snapshots (1 = every epoch, cheap with delta snapshots)")
	fs.IntVar(&cfg.node.Retain, "checkpoint-retain", checkpoint.DefaultRetain, "base+delta snapshot chains to keep when compacting (0 = keep all)")
	fs.BoolVar(&cfg.node.Async, "checkpoint-async", false, "save snapshots on a writer goroutine (the epoch path only captures state)")
	fs.BoolVar(&cfg.node.Compress, "wire-compress", true, "flate-compress columnar data frames (the SP must advertise support in its ack; every current build does)")
	fs.StringVar(&cfg.obsListen, "obs-listen", "", "introspection HTTP listener (/metrics, /status, /decisions, /debug/pprof)")
	fs.StringVar(&cfg.obsDecisions, "obs-decisions", "", "append runtime adaptation decisions to this JSONL file")
	fs.StringVar(&cfg.node.Tenant, "tenant", "", "tenant name announced in the hello (empty = derived from the source id by the SP)")
	fs.StringVar(&cfg.node.Class, "class", "silver", "SLO class announced in the hello (gold|silver|best-effort)")
	return fs, cfg
}

func main() {
	fs, cfg := newFlags(os.Args[0])
	_ = fs.Parse(os.Args[1:]) // ExitOnError: a bad flag exits here
	if err := run(*cfg); err != nil {
		fmt.Fprintln(os.Stderr, "jarvis-agent:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	endpoints := transport.ParseEndpoints(cfg.sp)
	if len(endpoints) == 0 {
		return fmt.Errorf("no SP endpoints in %q", cfg.sp)
	}
	q, rate, err := plan.QueryByName(cfg.query)
	if err != nil {
		return err
	}
	id := uint32(cfg.id)
	cfg.node.Query, cfg.node.ID, cfg.node.RateMbps, cfg.node.Adapt = q, id, rate, true
	agent, err := agentnode.Open(cfg.node)
	if err != nil {
		return err
	}
	defer agent.Close()
	src, ship := agent.Source(), agent.Shipper()

	if cfg.obsDecisions != "" {
		f, err := os.OpenFile(cfg.obsDecisions, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		obs.Decisions().SetSink(f)
	}
	if cfg.obsListen != "" {
		class, _ := admission.ParseClass(cfg.node.Class) // Open refused a bad one
		osrv := obs.NewServer()
		osrv.AddRegistry(ship.Counters())
		osrv.SetStatus(func() any {
			return map[string]any{
				"source":       id,
				"query":        cfg.query,
				"phase":        src.Phase().String(),
				"load_factors": src.LoadFactors(),
				"epochs":       src.Epochs(),
				"seq":          ship.Seq(),
				"acked":        ship.Acked(),
				"dropped":      ship.Dropped(),
				"term":         ship.Term(),
				"peer_version": ship.PeerVersion(),
				"connected":    ship.Connected(),
				"tenant":       cfg.node.Tenant,
				"class":        class.String(),
				"throttle_us":  ship.ThrottleHint().Microseconds(),
			}
		})
		addr, err := osrv.Start(cfg.obsListen)
		if err != nil {
			return err
		}
		defer osrv.Close()
		fmt.Printf("jarvis-agent %d: introspection on http://%s/metrics\n", id, addr)
	}

	resume := agent.Resume()
	if resume > 0 {
		fmt.Printf("jarvis-agent %d: resumed from snapshot after epoch %d (%d unacked epochs buffered)\n",
			id, resume, ship.Seq()-ship.Acked())
	}
	next := mkGenerator(q.Name, uint64(id))
	// The synthetic generator is deterministic: fast-forward it past the
	// epochs the snapshot already covers (a real agent would resume its
	// upstream ingest instead).
	var cb wire.ColumnarBatch
	for e := uint64(0); e < resume; e++ {
		cb.Reset()
		next(1_000_000, &cb)
	}
	if _, err := ship.ConnectAny(endpoints); err != nil {
		fmt.Fprintf(os.Stderr, "jarvis-agent %d: no SP reachable (%v), buffering epochs\n", id, err)
	}
	fmt.Printf("jarvis-agent %d: %s at %.1f Mbps, budget %.0f%%, sp %v\n",
		id, q.Name, rate, cfg.node.BudgetFrac*100, endpoints)

	for e := int(resume); cfg.epochs == 0 || e < cfg.epochs; e++ {
		start := time.Now()
		if !ship.Connected() {
			if addr, err := ship.ConnectAny(endpoints); err == nil {
				fmt.Printf("  reconnected to %s (term %d), replayed through epoch %d\n", addr, ship.Term(), ship.Seq())
			}
		}
		// Trace context: the epoch begins at generate start (zero when
		// lifecycle timing is off).
		genStart := obs.Now()
		cb.Reset()
		next(1_000_000, &cb)
		res, err := agent.Step(&cb, genStart)
		if err != nil {
			return err
		}
		if hint := ship.ThrottleHint(); hint > 0 {
			// The SP's last ack asked for breathing room: slow the shipping
			// cadence rather than pile epochs onto its delay queue.
			time.Sleep(hint)
		}
		if e%10 == 0 {
			lf := src.LoadFactors()
			fmt.Printf("  epoch %3d  phase %-8v budget used %5.1f%%  factors %.2f  out %6.2f Mbps  acked %d/%d\n",
				e, src.Phase(), res.BudgetUsedFrac*100, lf, float64(res.TotalOutBytes())*8/1e6,
				ship.Acked(), ship.Seq())
		}
		if cfg.realtime {
			if d := time.Second - time.Since(start); d > 0 {
				time.Sleep(d)
			}
		}
	}
	if err := agent.Close(); err != nil {
		return err
	}
	fmt.Printf("jarvis-agent %d: done; transport counters: %s\n", id, ship.Counters())
	return nil
}

// mkGenerator returns the columnar epoch generator for the named query.
func mkGenerator(queryName string, seed uint64) func(durMicros int64, cb *wire.ColumnarBatch) {
	switch queryName {
	case "LogAnalytics":
		return workload.NewLogGen(workload.DefaultLogConfig(seed)).NextWindowCols
	case "TraceSpanAgg":
		return workload.NewSpanGen(workload.DefaultSpanConfig(seed)).NextWindowCols
	default:
		cfg := workload.DefaultPingConfig(seed)
		cfg.SrcIP = 0x0A000000 + uint32(seed)
		return workload.NewPingGen(cfg).NextWindowCols
	}
}
