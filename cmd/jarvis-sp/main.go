// Command jarvis-sp runs a stream processor node: it listens for agent
// connections, merges their drained records and partial aggregates, and
// prints final query results as they complete.
//
// With -checkpoint-dir the SP runs the recovery subsystem: sequenced
// epochs are applied exactly once, engine state is snapshotted durably
// every -checkpoint-every applied epochs (agents are acked — and may
// prune their replay buffers — only after the covering snapshot is
// durable), results flow through an exactly-once result log, and on
// startup the newest consistent snapshot is restored so reconnecting
// agents replay only what the snapshot does not cover.
//
// High availability (internal/ha): a primary with -repl-listen streams
// its snapshot chain and result log to warm standbys and withholds agent
// acks until the standby confirms durability. A node started with
// -standby -peer syncs from the primary, keeps a warm shadow engine, and
// promotes itself (term bump) when the replication link has been down
// for -takeover-after; agents configured with both endpoints fail over
// to it and replay the uncovered epochs. A stale primary that rejoins is
// fenced by the term its former agents now carry.
//
// The SP executes wire-v4 frames directly over the decoded columns and
// advertises flate frame compression in its acks; compressed frames from
// agents that negotiated it are decoded transparently.
//
// With -admit-rate the SP runs overload protection (internal/admission):
// every tenant gets a class-weighted token bucket over its logical epoch
// payload; over-budget epochs are delayed (never dropped — the agent's
// replay buffer covers shed epochs), acks carry a pacing hint back to
// the shipper, and a tenant in sustained overload degrades to sampled
// ingestion at a recorded error bound until pressure clears. Individual
// tenants get absolute overrides with repeated -admit-tenant-rate
// flags, and -admit-pressure closes the loop on measurement: tenants
// degrade only while the live ingest p99 (a windowed quantile over
// stage_latency_seconds{stage="ingest"}) exceeds the threshold, and
// promote as soon as it clears.
//
// Observability: the SP always joins agent-shipped epoch trace context
// (trailing extensions on EpochEnd) with its own decode/wait/ingest/
// snapshot/replicate/ack stamps into end-to-end traces (-obs-listen
// serves them at /trace), and arms an anomaly flight recorder — a
// bounded ring of raw wire frames per connection that dumps
// automatically on shed/degrade/failover/fencing decisions and on
// demand at /flightrecorder, in the same capture format -record-traffic
// writes (jarvis-sim -replay reads either).
//
// Usage:
//
//	jarvis-sp -listen :7700 -query s2s -sources 1,2,3 \
//	    -checkpoint-dir /var/lib/jarvis/sp -checkpoint-every 4 \
//	    -repl-listen :7701
//	jarvis-sp -listen :7800 -query s2s -sources 1,2,3 \
//	    -checkpoint-dir /var/lib/jarvis/sp-standby \
//	    -standby -peer primary-host:7701 -takeover-after 3s
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"time"

	"jarvis/internal/admission"
	"jarvis/internal/checkpoint"
	"jarvis/internal/ha"
	"jarvis/internal/obs"
	"jarvis/internal/plan"
	"jarvis/internal/spnode"
	"jarvis/internal/telemetry"
	"jarvis/internal/transport"
)

type config struct {
	node             spnode.Config // the SP assembly's flags; run adds query, sources and admission
	query, sources   string
	takeoverAfter    time.Duration
	obsListen        string
	obsDecisions     string
	admitRate        float64
	admitBurst       float64
	admitMaxDelayed  int
	admitDegradeRate float64
	admitPressure    float64
	admitTenantRate  tenantRateFlag
	recordTraffic    string
}

// tenantRateFlag collects repeatable -admit-tenant-rate tenant=bytes/s
// overrides into a map the admission controller consumes directly.
type tenantRateFlag map[string]float64

func (f tenantRateFlag) String() string {
	parts := make([]string, 0, len(f))
	for name, rate := range f {
		parts = append(parts, fmt.Sprintf("%s=%g", name, rate))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (f tenantRateFlag) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	name = strings.TrimSpace(name)
	if !ok || name == "" {
		return fmt.Errorf("want tenant=bytes/s, got %q", s)
	}
	rate, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
	if err != nil || rate <= 0 {
		return fmt.Errorf("bad rate in %q: want a positive bytes/s", s)
	}
	f[name] = rate
	return nil
}

// newFlags registers every jarvis-sp flag on one FlagSet and returns it
// with the config the flags parse into.
func newFlags(name string) (*flag.FlagSet, *config) {
	cfg := &config{admitTenantRate: tenantRateFlag{}}
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.StringVar(&cfg.node.Listen, "listen", ":7700", "address to accept agents on")
	fs.StringVar(&cfg.query, "query", "s2s", "query to run (s2s|t2t|log|spans)")
	fs.StringVar(&cfg.sources, "sources", "1", "comma-separated source ids to wait for")
	fs.StringVar(&cfg.node.CheckpointDir, "checkpoint-dir", "", "durable snapshot directory (empty = no checkpointing)")
	fs.IntVar(&cfg.node.Every, "checkpoint-every", checkpoint.DefaultEvery, "applied epochs between durable snapshots (1 = every epoch, cheap with delta snapshots)")
	fs.IntVar(&cfg.node.Retain, "checkpoint-retain", checkpoint.DefaultRetain, "base+delta snapshot chains to keep when compacting (0 = keep all)")
	fs.BoolVar(&cfg.node.Async, "checkpoint-async", false, "save snapshots on a writer goroutine (acks still wait for the durable save)")
	fs.StringVar(&cfg.node.ReplListen, "repl-listen", "", "replication listener for warm standbys (primary; requires -checkpoint-dir)")
	fs.BoolVar(&cfg.node.Standby, "standby", false, "run as a warm standby (requires -peer and -checkpoint-dir)")
	fs.StringVar(&cfg.node.Peer, "peer", "", "primary's replication address to sync from (standby)")
	fs.Uint64Var(&cfg.node.Term, "term", 1, "primary fencing term (epoch lease token)")
	fs.DurationVar(&cfg.takeoverAfter, "takeover-after", 3*time.Second, "standby: promote after the replication link is down this long (0 = never)")
	fs.StringVar(&cfg.obsListen, "obs-listen", "", "introspection HTTP listener (/metrics, /status, /decisions, /debug/pprof)")
	fs.StringVar(&cfg.obsDecisions, "obs-decisions", "", "append runtime adaptation decisions to this JSONL file")
	fs.Float64Var(&cfg.admitRate, "admit-rate", 0, "per-tenant admission budget in bytes/sec of epoch payload for a weight-1 (silver) class; 0 disables admission control")
	fs.Float64Var(&cfg.admitBurst, "admit-burst", 0, "admission bucket capacity in bytes (0 = 2x -admit-rate); must exceed the largest epoch a tenant ships or that epoch can never drain")
	fs.IntVar(&cfg.admitMaxDelayed, "admit-max-delayed", 0, "delay-queue bound across all tenants before shed-and-replay (0 = default 256)")
	fs.Float64Var(&cfg.admitDegradeRate, "admit-degrade-rate", 0, "sampling rate for degraded tenants' raw records, in (0,1) (0 = default 0.25)")
	fs.Float64Var(&cfg.admitPressure, "admit-pressure", 0, "ingest p99 threshold in seconds: tenants degrade only while the live ingest p99 exceeds this, and promote once it clears (0 = bucket streaks alone decide)")
	fs.Var(cfg.admitTenantRate, "admit-tenant-rate", "absolute admission budget override `tenant=bytes/s` for one tenant, layered over -admit-rate (repeatable)")
	fs.StringVar(&cfg.recordTraffic, "record-traffic", "", "record every sequenced wire frame of every connection to this file (replayable via transport.ReplayTraffic or jarvis-sim -replay)")
	return fs, cfg
}

func main() {
	fs, cfg := newFlags(os.Args[0])
	_ = fs.Parse(os.Args[1:]) // ExitOnError: a bad flag exits here
	if err := run(*cfg); err != nil {
		fmt.Fprintln(os.Stderr, "jarvis-sp:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	q, _, err := plan.QueryByName(cfg.query)
	if err != nil {
		return err
	}
	cfg.node.Query = q
	for _, tok := range strings.Split(cfg.sources, ",") {
		id, err := strconv.ParseUint(strings.TrimSpace(tok), 10, 32)
		if err != nil {
			return fmt.Errorf("bad source id %q: %w", tok, err)
		}
		cfg.node.Sources = append(cfg.node.Sources, uint32(id))
	}

	// Live ingest p99: a windowed quantile over the always-on
	// stage_latency_seconds{stage="ingest"} histogram. Feeds the
	// -admit-pressure gate and the /status ingest_p99_s field.
	ingestP99 := obs.NewQuantileWindow(obs.StageHistogram(obs.StageIngest), 10*time.Second, time.Second)

	var admit *admission.Controller
	if cfg.admitRate > 0 {
		acfg := admission.DefaultConfig()
		acfg.RateBytesPerSec = cfg.admitRate
		if cfg.admitBurst > 0 {
			acfg.BurstBytes = cfg.admitBurst
		} else {
			acfg.BurstBytes = 2 * cfg.admitRate
		}
		if cfg.admitMaxDelayed > 0 {
			acfg.MaxDelayedEpochs = cfg.admitMaxDelayed
		}
		if cfg.admitDegradeRate > 0 {
			acfg.DegradeRate = cfg.admitDegradeRate
		}
		if len(cfg.admitTenantRate) > 0 {
			acfg.TenantRate = cfg.admitTenantRate
		}
		if cfg.admitPressure > 0 {
			acfg.Pressure = ingestP99.P99
			acfg.PressureThreshold = cfg.admitPressure
		}
		admit = admission.NewController(acfg)
		cfg.node.Admission = admit
		fmt.Printf("jarvis-sp: admission control on (%.0f B/s per silver tenant, burst %.0f B, degrade rate %.2f)\n",
			acfg.RateBytesPerSec, acfg.BurstBytes, acfg.DegradeRate)
		if len(cfg.admitTenantRate) > 0 {
			fmt.Printf("jarvis-sp: tenant rate overrides: %s\n", cfg.admitTenantRate)
		}
		if cfg.admitPressure > 0 {
			fmt.Printf("jarvis-sp: degradation gated on ingest p99 > %gs\n", cfg.admitPressure)
		}
	}

	// One frame recorder, two sinks. The anomaly ring is always armed —
	// capture is one bounded copy per frame, and the decision-triggered
	// dumps are rate-limited. -record-traffic adds the stream, which keeps
	// every frame and turns the live run into a deterministic replay
	// corpus; both serialize in the same capture format.
	var stream io.Writer
	if cfg.recordTraffic != "" {
		tf, err := os.Create(cfg.recordTraffic)
		if err != nil {
			return fmt.Errorf("-record-traffic: %w", err)
		}
		tw := bufio.NewWriterSize(tf, 1<<20)
		stream = tw
		defer func() {
			if err := tw.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "jarvis-sp: traffic flush:", err)
			}
			tf.Close()
		}()
		fmt.Printf("jarvis-sp: recording traffic to %s\n", cfg.recordTraffic)
	}

	node, err := spnode.Open(cfg.node)
	if err != nil {
		return err
	}
	rc, gate := node.Receiver(), node.Gate()
	rec := transport.NewTrafficRecorder(stream)
	rec.ArmRing(rc.Counters())
	rc.SetTrafficRecorder(rec)
	obs.Decisions().SetNotify(rec.OnDecision)
	defer func() {
		if err := rec.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "jarvis-sp: traffic recorder:", err)
		}
	}()
	defer node.Crash() // a fenced or failed run; a no-op after Close
	if node.Restored() {
		fmt.Printf("jarvis-sp: restored snapshot (result log at %d rows, watermark %d µs)\n",
			node.ResultLog().Rows(), node.ResultLog().EmittedWM())
		if gate.Term() > cfg.node.Term {
			fmt.Printf("jarvis-sp: resuming at restored term %d\n", gate.Term())
		}
	}

	if cfg.obsDecisions != "" {
		f, err := os.OpenFile(cfg.obsDecisions, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		obs.Decisions().SetSink(f)
	}
	pub := node.Publisher()
	if cfg.obsListen != "" {
		osrv := obs.NewServer()
		osrv.AddRegistry(rc.Counters(), gate.Counters())
		if admit != nil {
			osrv.AddRegistry(admit.Counters())
		}
		osrv.Handle("/flightrecorder", rec.ServeHTTP)
		osrv.SetStatus(func() any {
			st := map[string]any{
				"role":          gate.Role().String(),
				"term":          gate.Term(),
				"query":         cfg.query,
				"wire_version":  rc.MaxVersion(),
				"bytes_in":      rc.BytesIn(),
				"frames_in":     rc.Frames(),
				"watermark_us":  node.Engine().EffectiveWatermark(),
				"ingest_p99_s":  ingestP99.P99(),
				"traces_joined": obs.Traces().Total(),
			}
			if meta, ok := rec.LastDump(); ok {
				st["flight_last"] = map[string]any{
					"reason": meta.Reason, "seq": meta.Seq, "ts_us": meta.TsMicros,
				}
			}
			wms := map[string]int64{}
			node.Engine().SourceWatermarks(func(src uint32, wm int64) {
				wms[strconv.FormatUint(uint64(src), 10)] = wm
			})
			st["source_watermarks_us"] = wms
			if admit != nil {
				st["admission"] = admit.Snapshot()
			}
			if pub != nil {
				st["replication_lag_epochs"] = pub.Lag()
				st["standbys"] = pub.Standbys()
			}
			return st
		})
		addr, err := osrv.Start(cfg.obsListen)
		if err != nil {
			return err
		}
		defer osrv.Close()
		fmt.Printf("jarvis-sp: introspection on http://%s/metrics\n", addr)
	}

	fmt.Printf("jarvis-sp: %s on %s as %s, waiting for sources [%s]\n",
		q.Name, node.Addr(), gate.Role(), cfg.sources)
	if pub != nil {
		fmt.Printf("jarvis-sp: replicating to standbys on %s (term %d)\n", node.ReplAddr(), gate.Term())
	}
	if cfg.node.Standby {
		fmt.Printf("jarvis-sp: standby syncing from %s (takeover after %v)\n", cfg.node.Peer, cfg.takeoverAfter)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	served := make(chan error, 1)
	go func() { served <- node.Serve(ctx) }()
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case err := <-served:
			// Interrupted (or the listener failed): a final snapshot so a
			// clean shutdown loses nothing.
			if cerr := node.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "jarvis-sp: final snapshot:", cerr)
			}
			fmt.Printf("jarvis-sp: transport counters: %s\n", rc.Counters())
			fmt.Printf("jarvis-sp: ha counters: %s\n", gate.Counters())
			return err
		case <-ticker.C:
		}
		// Keep the ingest-p99 window rotating even when nothing polls it
		// (snapshots are lazy, one per interval).
		ingestP99.Tick()
		switch gate.Role() {
		case ha.RoleFenced:
			// A newer primary exists: stop emitting and shut down.
			fmt.Fprintf(os.Stderr, "jarvis-sp: fenced at term %d — a newer primary was promoted\n", gate.Term())
			return fmt.Errorf("fenced: superseded by a newer primary (term > %d)", gate.Term())
		case ha.RoleStandby:
			// The shadow engine only mirrors the primary. Watch the link
			// and promote when the takeover policy says so.
			if st := node.Standby(); cfg.takeoverAfter > 0 && st.DownFor() > cfg.takeoverAfter {
				if err := node.Promote(); err != nil {
					fmt.Fprintln(os.Stderr, "jarvis-sp: promote:", err)
					continue
				}
				fmt.Printf("jarvis-sp: promoted to primary at term %d (replicated snapshot id %d, %d mirrored rows)\n",
					gate.Term(), st.LastApplied(), st.ResultLog().Rows())
			}
			continue
		}
		// Advance may return rows AND an error (rows durably logged but the
		// follow-up snapshot failed): always print what was emitted — the
		// result log will not hand these rows back.
		rows, err := node.Advance()
		if len(rows) > 0 {
			printRows(rows)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "jarvis-sp:", err)
		}
	}
}

func printRows(rows telemetry.Batch) {
	for i, r := range rows {
		if i >= 5 {
			fmt.Printf("  ... and %d more rows\n", len(rows)-5)
			break
		}
		if row, ok := r.Data.(*telemetry.AggRow); ok {
			fmt.Printf("  window %d  key %-18s count %-6d avg %.0f min %.0f max %.0f\n",
				row.Window, row.Key.String(), row.Count, row.Avg(), row.Min, row.Max)
		}
	}
}
