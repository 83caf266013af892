package agentnode

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"jarvis/internal/checkpoint"
	"jarvis/internal/core"
	"jarvis/internal/plan"
	"jarvis/internal/spnode"
	"jarvis/internal/telemetry"
	"jarvis/internal/transport"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
)

// pinned opens an agent with adaptation off and every load factor at 1,
// as the simulator and the chaos suites run theirs: re-running an epoch
// from a snapshot then re-ships identical content.
func pinned(t *testing.T, cfg Config) *Agent {
	t.Helper()
	cfg.ID, cfg.BudgetFrac, cfg.Query = 1, 4, plan.S2SProbe()
	a, err := Open(cfg)
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
	return a
}

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
			a := pinned(t, Config{CheckpointDir: t.TempDir(), Every: 1})
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

const (
	restartData  = 11 // data epochs; a quiet tail follows
	restartTotal = 14
	restartEvery = 3 // the agent's snapshot cadence
	restartKill  = 7 // the agent is crashed after this epoch is applied
)

// TestRestartOverTCP ships an agent's epochs over loopback to an SP
// primary, crashes the agent after epoch restartKill, reopens it from
// its directory and runs it to the end. The SP's result log must be
// byte-identical to a run without the crash: the reopened agent resumes
// at its last snapshot, re-runs the epochs after it, and the SP drops
// the re-shipped ones by sequence.
func TestRestartOverTCP(t *testing.T) {
	before := runtime.NumGoroutine()
	ref := restartRun(t, false, false)
	if len(ref) == 0 {
		t.Fatal("uninterrupted run produced no rows: the comparison is vacuous")
	}
	for _, async := range []bool{false, true} {
		if got := restartRun(t, true, async); !bytes.Equal(got, ref) {
			t.Fatalf("crash and restart (async %v) diverged: %d bytes of rows vs %d", async, len(got), len(ref))
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlived the runs", runtime.NumGoroutine()-before)
		}
	}
}

// restartRun runs one agent against one SP and returns the SP's result
// log rendered as wire records.
func restartRun(t *testing.T, crash, async bool) []byte {
	t.Helper()
	spDir, agDir := t.TempDir(), t.TempDir()
	sp, err := spnode.Open(spnode.Config{
		Query: plan.S2SProbe(), Sources: []uint32{1}, CheckpointDir: spDir, Every: 2, Listen: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- sp.Serve(context.Background()) }()
	cfg := Config{CheckpointDir: agDir, Every: restartEvery, Async: async}
	open := func() (*Agent, func(int64, *wire.ColumnarBatch)) {
		a := pinned(t, cfg)
		if err := a.Shipper().Connect(sp.Addr().String()); err != nil {
			t.Fatal(err)
		}
		gen := workload.NewPingGen(workload.DefaultPingConfig(7)).NextWindowCols
		var cb wire.ColumnarBatch
		for e := uint64(1); e <= a.Resume() && e <= restartData; e++ {
			cb.Reset()
			gen(1_000_000, &cb)
		}
		return a, gen
	}
	a, gen := open()
	var cb wire.ColumnarBatch
	killed := false
	for e := 1; e <= restartTotal; e++ {
		cb.Reset()
		if e <= restartData {
			gen(1_000_000, &cb)
		} else {
			a.Source().ObserveTime(int64(e) * 1_000_000)
		}
		if _, err := a.Step(&cb, time.Time{}); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); sp.Receiver().AppliedSeq(1) < a.Shipper().Seq(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("SP never applied epoch %d", a.Shipper().Seq())
			}
		}
		if _, err := sp.Advance(); err != nil {
			t.Fatal(err)
		}
		if crash && !killed && e == restartKill {
			killed = true
			a.Crash()
			a, gen = open()
			// Sync saves are durable when Step returns; a crash drops the
			// async writer's queued ones, so an older snapshot may be newest.
			last, got := uint64(restartKill-restartKill%restartEvery), a.Resume()
			if got != last && (!async || got > last || got%restartEvery != 0) {
				t.Fatalf("reopened agent resumes after epoch %d, want the last cadence snapshot %d", got, last)
			}
			e = int(got)
		}
	}
	if replayed := sp.Receiver().Counters().Get(transport.CtrEpochsReplayed); crash && replayed < 1 {
		t.Fatal("the SP dropped no re-shipped epoch: the crash exercised nothing")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	rows, err := checkpoint.ReadResultLog(filepath.Join(spDir, "results.log"))
	if err != nil {
		t.Fatal(err)
	}
	return encode(t, rows)
}

func encode(t *testing.T, rows telemetry.Batch) []byte {
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
