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
	"jarvis/internal/checkpoint"
	"jarvis/internal/core"
	"jarvis/internal/experiments"
	"jarvis/internal/obs"
	"jarvis/internal/transport"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
)

func main() {
	spAddr := flag.String("sp", "127.0.0.1:7700", "stream processor endpoints, comma-separated (primary first, then standbys)")
	id := flag.Uint("id", 1, "source id")
	queryName := flag.String("query", "s2s", "query to run (s2s|t2t|log)")
	budget := flag.Float64("budget", 0.6, "CPU budget as a fraction of one core")
	epochs := flag.Int("epochs", 60, "epochs to run (0 = forever)")
	realtime := flag.Bool("realtime", false, "pace epochs at one per second of wall time")
	ckptDir := flag.String("checkpoint-dir", "", "durable snapshot directory (empty = no checkpointing)")
	ckptEvery := flag.Int("checkpoint-every", checkpoint.DefaultEvery, "epochs between durable snapshots (1 = every epoch, cheap with delta snapshots)")
	ckptRetain := flag.Int("checkpoint-retain", checkpoint.DefaultRetain, "base+delta snapshot chains to keep when compacting (0 = keep all)")
	ckptAsync := flag.Bool("checkpoint-async", false, "save snapshots on a writer goroutine (the epoch path only captures state)")
	compress := flag.Bool("wire-compress", true, "flate-compress columnar data frames (the SP must advertise support in its ack; every current build does)")
	obsListen := flag.String("obs-listen", "", "introspection HTTP listener (/metrics, /status, /decisions, /debug/pprof)")
	obsDecisions := flag.String("obs-decisions", "", "append runtime adaptation decisions to this JSONL file")
	tenantName := flag.String("tenant", "", "tenant name announced in the hello (empty = derived from the source id by the SP)")
	className := flag.String("class", "silver", "SLO class announced in the hello (gold|silver|best-effort)")
	flag.Parse()

	if err := run(*spAddr, uint32(*id), *queryName, *budget, *epochs, *realtime, *ckptDir, *ckptEvery, *ckptRetain, *ckptAsync, *compress, *obsListen, *obsDecisions, *tenantName, *className); err != nil {
		fmt.Fprintln(os.Stderr, "jarvis-agent:", err)
		os.Exit(1)
	}
}

func run(spAddr string, id uint32, queryName string, budget float64, epochs int, realtime bool, ckptDir string, ckptEvery, ckptRetain int, ckptAsync, compress bool, obsListen, obsDecisions, tenantName, className string) error {
	endpoints := transport.ParseEndpoints(spAddr)
	if len(endpoints) == 0 {
		return fmt.Errorf("no SP endpoints in %q", spAddr)
	}
	q, rate, err := experiments.QueryByName(queryName)
	if err != nil {
		return err
	}
	src, err := core.NewSource(q, core.SourceOptions{
		ID:         id,
		BudgetFrac: budget,
		RateMbps:   rate,
		Adapt:      true,
	})
	if err != nil {
		return err
	}
	ship := transport.NewDurableShipper(id, 0)
	ship.SetCompression(compress)
	class, err := admission.ParseClass(className)
	if err != nil {
		return err
	}
	ship.SetIdentity(tenantName, class)

	if obsDecisions != "" {
		f, err := os.OpenFile(obsDecisions, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		obs.Decisions().SetSink(f)
	}
	if obsListen != "" {
		osrv := obs.NewServer()
		osrv.AddRegistry(ship.Counters())
		osrv.SetStatus(func() any {
			return map[string]any{
				"source":       id,
				"query":        queryName,
				"phase":        src.Phase().String(),
				"load_factors": src.LoadFactors(),
				"epochs":       src.Epochs(),
				"seq":          ship.Seq(),
				"acked":        ship.Acked(),
				"dropped":      ship.Dropped(),
				"term":         ship.Term(),
				"peer_version": ship.PeerVersion(),
				"connected":    ship.Connected(),
				"tenant":       tenantName,
				"class":        class.String(),
				"throttle_us":  ship.ThrottleHint().Microseconds(),
			}
		})
		addr, err := osrv.Start(obsListen)
		if err != nil {
			return err
		}
		defer osrv.Close()
		fmt.Printf("jarvis-agent %d: introspection on http://%s/metrics\n", id, addr)
	}

	var arec *checkpoint.AgentRecovery
	resume := uint64(0)
	if ckptDir != "" {
		store, err := checkpoint.OpenStore(ckptDir)
		if err != nil {
			return err
		}
		store.SetRetention(ckptRetain)
		arec = checkpoint.NewAgentRecovery(store, ckptEvery, src, ship)
		arec.SetAsync(ckptAsync)
		defer arec.Close()
		var restored bool
		resume, restored, err = arec.Restore()
		if err != nil {
			return err
		}
		if restored {
			fmt.Printf("jarvis-agent %d: resumed from snapshot after epoch %d (%d unacked epochs buffered)\n",
				id, resume, ship.Seq()-ship.Acked())
		}
	}

	next := mkGenerator(queryName, uint64(id))
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
		id, q.Name, rate, budget*100, endpoints)

	for e := int(resume); epochs == 0 || e < epochs; e++ {
		start := time.Now()
		var genDur time.Duration
		genStart := obs.Now()
		cb.Reset()
		next(1_000_000, &cb)
		if !genStart.IsZero() {
			genDur = time.Since(genStart)
			obs.Observe(obs.StageGenerate, genDur)
		}
		res, err := src.RunEpochColumnar(&cb)
		if err != nil {
			return err
		}
		if !genStart.IsZero() {
			// Trace context: the epoch began at generate start; the shipper
			// seals encode timing and the trace id into the EpochEnd.
			res.Timing.StartMicros = genStart.UnixMicro()
			res.Timing.GenMicros = genDur.Microseconds()
		}
		if !ship.Connected() {
			if addr, err := ship.ConnectAny(endpoints); err == nil {
				fmt.Printf("  reconnected to %s (term %d), replayed through epoch %d\n", addr, ship.Term(), ship.Seq())
			}
		}
		if err := ship.ShipEpoch(res); err != nil {
			return err
		}
		if arec != nil {
			if err := arec.AfterEpoch(ship.Seq()); err != nil {
				return err
			}
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
		if realtime {
			if d := time.Second - time.Since(start); d > 0 {
				time.Sleep(d)
			}
		}
	}
	if arec != nil {
		if err := arec.Flush(); err != nil {
			return err
		}
	}
	fmt.Printf("jarvis-agent %d: done; transport counters: %s\n", id, ship.Counters())
	return nil
}

// mkGenerator returns the columnar epoch generator for the chosen query.
func mkGenerator(queryName string, seed uint64) func(durMicros int64, cb *wire.ColumnarBatch) {
	switch queryName {
	case "log", "loganalytics":
		return workload.NewLogGen(workload.DefaultLogConfig(seed)).NextWindowCols
	default:
		cfg := workload.DefaultPingConfig(seed)
		cfg.SrcIP = 0x0A000000 + uint32(seed)
		return workload.NewPingGen(cfg).NextWindowCols
	}
}
