package main

import (
	"flag"
	"testing"
)

// TestFlagSurface pins every jarvis-sp flag's name, default and usage:
// scripts and unit files start the daemon with these, so a change here
// is a change to its interface.
func TestFlagSurface(t *testing.T) {
	want := []struct{ name, def, usage string }{
		{"admit-burst", "0", "admission bucket capacity in bytes (0 = 2x -admit-rate); must exceed the largest epoch a tenant ships or that epoch can never drain"},
		{"admit-degrade-rate", "0", "sampling rate for degraded tenants' raw records, in (0,1) (0 = default 0.25)"},
		{"admit-max-delayed", "0", "delay-queue bound across all tenants before shed-and-replay (0 = default 256)"},
		{"admit-pressure", "0", "ingest p99 threshold in seconds: tenants degrade only while the live ingest p99 exceeds this, and promote once it clears (0 = bucket streaks alone decide)"},
		{"admit-rate", "0", "per-tenant admission budget in bytes/sec of epoch payload for a weight-1 (silver) class; 0 disables admission control"},
		{"admit-tenant-rate", "", "absolute admission budget override `tenant=bytes/s` for one tenant, layered over -admit-rate (repeatable)"},
		{"checkpoint-async", "false", "save snapshots on a writer goroutine (acks still wait for the durable save)"},
		{"checkpoint-dir", "", "durable snapshot directory (empty = no checkpointing)"},
		{"checkpoint-every", "32", "applied epochs between durable snapshots (1 = every epoch, cheap with delta snapshots)"},
		{"checkpoint-retain", "4", "base+delta snapshot chains to keep when compacting (0 = keep all)"},
		{"listen", ":7700", "address to accept agents on"},
		{"obs-decisions", "", "append runtime adaptation decisions to this JSONL file"},
		{"obs-listen", "", "introspection HTTP listener (/metrics, /status, /decisions, /debug/pprof)"},
		{"peer", "", "primary's replication address to sync from (standby)"},
		{"query", "s2s", "query to run (s2s|t2t|log|spans)"},
		{"record-traffic", "", "record every sequenced wire frame of every connection to this file (replayable via transport.ReplayTraffic or jarvis-sim -replay)"},
		{"repl-listen", "", "replication listener for warm standbys (primary; requires -checkpoint-dir)"},
		{"sources", "1", "comma-separated source ids to wait for"},
		{"standby", "false", "run as a warm standby (requires -peer and -checkpoint-dir)"},
		{"takeover-after", "3s", "standby: promote after the replication link is down this long (0 = never)"},
		{"term", "1", "primary fencing term (epoch lease token)"},
	}
	fs, _ := newFlags("jarvis-sp")
	i := 0
	fs.VisitAll(func(f *flag.Flag) {
		if i >= len(want) {
			t.Errorf("unexpected flag -%s", f.Name)
			return
		}
		if w := want[i]; f.Name != w.name || f.DefValue != w.def || f.Usage != w.usage {
			t.Errorf("flag %d = -%s default %q usage %q, want -%s default %q usage %q",
				i, f.Name, f.DefValue, f.Usage, w.name, w.def, w.usage)
		}
		i++
	})
	if i != len(want) {
		t.Errorf("%d flags, want %d", i, len(want))
	}
}
