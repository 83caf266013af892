package main

import (
	"flag"
	"go/build"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jarvis/internal/agentnode"
	"jarvis/internal/core"
	"jarvis/internal/plan"
	"jarvis/internal/spnode"
	"jarvis/internal/wire"
)

// TestFlagSurface pins every jarvis-agent flag's name, default and
// usage: scripts and unit files start the daemon with these, so a change
// here is a change to its interface.
func TestFlagSurface(t *testing.T) {
	want := []struct{ name, def, usage string }{
		{"budget", "0.6", "CPU budget as a fraction of one core"},
		{"checkpoint-async", "false", "save snapshots on a writer goroutine (the epoch path only captures state)"},
		{"checkpoint-dir", "", "durable snapshot directory (empty = no checkpointing)"},
		{"checkpoint-every", "32", "epochs between durable snapshots (1 = every epoch, cheap with delta snapshots)"},
		{"checkpoint-retain", "4", "base+delta snapshot chains to keep when compacting (0 = keep all)"},
		{"class", "silver", "SLO class announced in the hello (gold|silver|best-effort)"},
		{"epochs", "60", "epochs to run (0 = forever)"},
		{"id", "1", "source id"},
		{"obs-decisions", "", "append runtime adaptation decisions to this JSONL file"},
		{"obs-listen", "", "introspection HTTP listener (/metrics, /status, /decisions, /debug/pprof)"},
		{"query", "s2s", "query to run (s2s|t2t|log|spans)"},
		{"realtime", "false", "pace epochs at one per second of wall time"},
		{"sp", "127.0.0.1:7700", "stream processor endpoints, comma-separated (primary first, then standbys)"},
		{"tenant", "", "tenant name announced in the hello (empty = derived from the source id by the SP)"},
		{"wire-compress", "true", "flate-compress columnar data frames (the SP must advertise support in its ack; every current build does)"},
	}
	fs, _ := newFlags("jarvis-agent")
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

// TestEveryQueryEmitsRows drives each canonical query the way the two
// daemons build it — the registry's plan, the agent's generator, the
// agent and SP assemblies — and requires result rows: a generator that
// feeds the wrong records, or a join table that misses the agent's
// addresses, yields none.
func TestEveryQueryEmitsRows(t *testing.T) {
	const id, dataEpochs, epochs = 1, 11, 14
	for _, name := range []string{"s2s", "t2t", "log", "spans"} {
		t.Run(name, func(t *testing.T) {
			q, rate, err := plan.QueryByName(name)
			if err != nil {
				t.Fatal(err)
			}
			agent, err := agentnode.Open(agentnode.Config{
				SourceOptions: core.SourceOptions{ID: id, BudgetFrac: 4, RateMbps: rate},
				Query:         q,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer agent.Close()
			ones := make([]float64, len(agent.Source().Query().Ops))
			for i := range ones {
				ones[i] = 1
			}
			if err := agent.Source().SetLoadFactors(ones); err != nil {
				t.Fatal(err)
			}
			spq, _, _ := plan.QueryByName(name)
			sp, err := spnode.Open(spnode.Config{Query: spq, Sources: []uint32{id}})
			if err != nil {
				t.Fatal(err)
			}
			defer sp.Close()

			next, rows := mkGenerator(q.Name, id), 0
			var cb wire.ColumnarBatch
			for e := 1; e <= epochs; e++ {
				cb.Reset()
				if e <= dataEpochs {
					next(1_000_000, &cb)
				} else {
					agent.Source().ObserveTime(int64(e) * 1_000_000) // quiet tail closes windows
				}
				if _, err := agent.Step(&cb, time.Time{}); err != nil {
					t.Fatal(err)
				}
				if err := agent.Shipper().Flush(sp.Receiver()); err != nil {
					t.Fatal(err)
				}
				out, err := sp.Advance()
				if err != nil {
					t.Fatal(err)
				}
				rows += len(out)
			}
			if rows == 0 {
				t.Fatalf("%s emitted no rows in %d epochs", q.Name, epochs)
			}
			t.Logf("%s: %d rows", q.Name, rows)
		})
	}
}

// TestDaemonsStandAlone pins what the daemons link: neither the paper's
// experiment drivers nor the simulator belong in an agent or SP binary.
func TestDaemonsStandAlone(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"cmd/jarvis-agent", "cmd/jarvis-sp"} {
		seen := map[string]bool{}
		var walk func(dir string)
		walk = func(dir string) {
			pkg, err := build.ImportDir(filepath.Join(root, dir), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range pkg.Imports {
				rel, ok := strings.CutPrefix(imp, "jarvis/")
				if ok && !seen[rel] {
					seen[rel] = true
					walk(rel)
				}
			}
		}
		walk(cmd)
		for _, banned := range []string{"internal/experiments", "internal/sim"} {
			if seen[banned] {
				t.Errorf("%s depends on %s", cmd, banned)
			}
		}
	}
}
