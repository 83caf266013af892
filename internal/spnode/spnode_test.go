package spnode

import (
	"runtime"
	"testing"

	"jarvis/internal/admission"
	"jarvis/internal/checkpoint"
	"jarvis/internal/core"
	"jarvis/internal/plan"
	"jarvis/internal/transport"
	"jarvis/internal/workload"
)

// TestOpenRefuses pins the configurations no role can serve, with the
// error texts jarvis-sp prints for them.
func TestOpenRefuses(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"standby without peer", Config{Standby: true, CheckpointDir: dir},
			"-standby requires -checkpoint-dir and -peer"},
		{"standby without dir", Config{Standby: true, Peer: "127.0.0.1:1"},
			"-standby requires -checkpoint-dir and -peer"},
		{"standby replicating", Config{Standby: true, CheckpointDir: dir, Peer: "127.0.0.1:1", ReplListen: "127.0.0.1:0"},
			"-repl-listen is not supported with -standby: point new standbys at the promoted node explicitly"},
		{"replication without dir", Config{ReplListen: "127.0.0.1:0"},
			"-repl-listen requires -checkpoint-dir"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Query = plan.S2SProbe()
			n, err := Open(tc.cfg)
			if err == nil {
				n.Crash()
				t.Fatal("Open accepted the config")
			}
			if err.Error() != tc.want {
				t.Fatalf("error = %q, want %q", err, tc.want)
			}
		})
	}
}

// TestResumesAtRestoredTerm: a node restarted with a lower configured
// term keeps the term its snapshots carry, so its own agents cannot
// fence it.
func TestResumesAtRestoredTerm(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Query: plan.S2SProbe(), CheckpointDir: dir, Every: 1, Term: 3}
	n, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Term = 1
	if n, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if !n.Restored() {
		t.Fatal("reopen restored no snapshot")
	}
	if got := n.Gate().Term(); got != 3 {
		t.Fatalf("gate term = %d after reopening at -term 1, want the restored 3", got)
	}
}

// shipEpochs runs epochs ping epochs through one source and flushes
// each into the node, advancing it after every epoch as the daemon's
// ticker does.
func shipEpochs(t *testing.T, n *Node, ship *transport.DurableShipper, epochs int) {
	t.Helper()
	src, err := core.NewSource(plan.S2SProbe(), core.SourceOptions{ID: 1, BudgetFrac: 1, RateMbps: 1})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(5))
	for e := 0; e < epochs; e++ {
		res, err := src.RunEpoch(gen.NextWindow(1_000_000))
		if err != nil {
			t.Fatal(err)
		}
		if err := ship.ShipEpoch(res); err != nil {
			t.Fatal(err)
		}
		if err := ship.Flush(n.Receiver()); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Advance(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCloseSavesCrashDoesNot: Close leaves a snapshot covering every
// applied epoch; Crash leaves only what the cadence saved.
func TestCloseSavesCrashDoesNot(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(*Node)
		want uint64
	}{
		{"close", func(n *Node) { _ = n.Close() }, 6},
		{"crash", (*Node).Crash, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Query: plan.S2SProbe(), Sources: []uint32{1}, CheckpointDir: t.TempDir(), Every: 4}
			n, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			shipEpochs(t, n, transport.NewDurableShipper(1, 0), 6)
			if got := n.Receiver().AppliedSeq(1); got != 6 {
				t.Fatalf("applied %d epochs, want 6", got)
			}
			tc.stop(n)
			if n, err = Open(cfg); err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			if got := n.Receiver().AppliedSeq(1); got != tc.want {
				t.Fatalf("reopened at epoch %d, want %d", got, tc.want)
			}
		})
	}
}

// TestOpenStartsNoGoroutine: the simulator drives a node on its own
// virtual clock, so opening one (sim-shaped: admission, checkpoints, no
// listeners) and closing it must leave the goroutine count alone.
func TestOpenStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	n, err := Open(Config{
		Query: plan.S2SProbe(), Sources: []uint32{1, 2}, CheckpointDir: t.TempDir(),
		Every: 2, Retain: checkpoint.DefaultRetain,
		Admission: admission.NewController(admission.DefaultConfig()),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only a rise is the node's: an earlier test's goroutines may still
	// be exiting.
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("Open started %d goroutines", got-before)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines left after Close", got-before)
	}
}
