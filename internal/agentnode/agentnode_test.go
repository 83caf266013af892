package agentnode

import (
	"os"
	"runtime"
	"testing"
	"time"

	"jarvis/internal/core"
	"jarvis/internal/plan"
	"jarvis/internal/wire"
)

// TestOpenStartsNoGoroutine: the simulator steps its agents on its own
// virtual clock, so opening one sim-shaped (no snapshots, identity set)
// and closing it must leave the goroutine count alone.
func TestOpenStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	a, err := Open(Config{
		SourceOptions: core.SourceOptions{ID: 1, BudgetFrac: 4},
		Query:         plan.S2SProbe(), MaxPending: 1024, Tenant: "web", Class: "gold",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("Open started %d goroutines", got-before)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("%d goroutines left after Close", got-before)
	}
}

func TestOpenRefusesUnknownClass(t *testing.T) {
	if _, err := Open(Config{Query: plan.S2SProbe(), Class: "platinum"}); err == nil {
		t.Fatal("Open accepted an unknown SLO class")
	}
}

// TestCloseReleasesStore: after a snapshot opened the store's manifest,
// Close and Crash both give its file handle back.
func TestCloseReleasesStore(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no per-process fd listing: %v", err)
		}
		return len(ents)
	}
	for _, tc := range []struct {
		name string
		stop func(*Agent)
	}{
		{"close", func(a *Agent) { _ = a.Close() }},
		{"crash", (*Agent).Crash},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := fds()
			a, err := Open(Config{
				SourceOptions: core.SourceOptions{ID: 1, BudgetFrac: 4},
				Query:         plan.S2SProbe(), CheckpointDir: t.TempDir(), Every: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			var cb wire.ColumnarBatch
			if _, err := a.Step(&cb, time.Time{}); err != nil {
				t.Fatal(err)
			}
			if fds() == before {
				t.Fatal("a snapshot left no file open: the check is vacuous")
			}
			tc.stop(a)
			if got := fds(); got != before {
				t.Fatalf("%d file handles left open", got-before)
			}
		})
	}
}
