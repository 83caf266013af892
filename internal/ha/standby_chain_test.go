package ha

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jarvis/internal/checkpoint"
	"jarvis/internal/core"
	"jarvis/internal/plan"
	"jarvis/internal/wire"
)

// replicated is linearSnapshot(id) as the replication stream carries it.
func replicated(t *testing.T, id uint64) *wire.ReplSnapshot {
	t.Helper()
	snap := linearSnapshot(id)
	var enc bytes.Buffer
	if err := snap.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	return &wire.ReplSnapshot{ID: id, BaseID: snap.BaseID, Seq: id, Term: 1, Delta: snap.Delta, Data: enc.Bytes()}
}

func newChainStandby(t *testing.T) *Standby {
	t.Helper()
	proc, err := core.NewProcessor(plan.S2SProbe())
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStandby(proc, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = st.ResultLog().Close()
		_ = st.Store().Close()
	})
	return st
}

// manifestKinds reads the f/d column of the standby store's manifest.
func manifestKinds(t *testing.T, store *checkpoint.Store) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(store.Dir(), "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		kinds = append(kinds, f[len(f)-1])
	}
	return strings.Join(kinds, " ")
}

// TestStandbyUsesChain: the standby persists the replication stream
// through its store's chain, so it bounds, compacts and recovers its
// local chain by the one policy TestChainPolicy pins.
func TestStandbyUsesChain(t *testing.T) {
	const n = 2*checkpoint.DefaultMaxChain + 2 // a base and deltas past two local chains

	// Retention is the store's: 1 keeps only the newest chain — the
	// re-based one that starts at snapshot DefaultMaxChain+2 — and 0
	// keeps everything. (jarvis-sp -standby -checkpoint-retain sets it.)
	for retain, want := range map[int]int{1: n - (checkpoint.DefaultMaxChain + 1), 0: n} {
		st := newChainStandby(t)
		st.Store().SetRetention(retain)
		for id := uint64(1); id <= n; id++ {
			if err := st.ApplySnapshot(replicated(t, id)); err != nil {
				t.Fatalf("retention %d: apply %d: %v", retain, id, err)
			}
		}
		if got, err := st.Store().Snapshots(); err != nil || got != want {
			t.Fatalf("retention %d: standby store holds %d snapshots (err %v), want %d", retain, got, err, want)
		}
		if snap, ok, err := st.Store().Latest(); err != nil || !ok || snap.Seq != n || len(snap.Stages[2]) != n {
			t.Fatalf("retention %d: latest ok=%v err=%v", retain, ok, err)
		}
	}

	// A failed local save: the error surfaces (the caller resyncs), and
	// the next save re-bases on the folded state, which still holds the
	// rows of the snapshot whose save was lost.
	st := newChainStandby(t)
	for id := uint64(1); id <= 3; id++ {
		if err := st.ApplySnapshot(replicated(t, id)); err != nil {
			t.Fatal(err)
		}
	}
	squat := filepath.Join(st.Store().Dir(), checkpoint.SnapshotFileName(4))
	if err := os.Mkdir(squat, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.ApplySnapshot(replicated(t, 4)); err == nil {
		t.Fatal("a failed local save did not surface")
	}
	if err := os.Remove(squat); err != nil {
		t.Fatal(err)
	}
	if err := st.ApplySnapshot(replicated(t, 5)); err != nil {
		t.Fatal(err)
	}
	if got := manifestKinds(t, st.Store()); got != "f d d f" {
		t.Fatalf("standby manifest %q, want a base after the failed save", got)
	}
	if snap, ok, err := st.Store().Latest(); err != nil || !ok || snap.Seq != 5 || len(snap.Stages[2]) != 5 {
		t.Fatalf("latest after the failed save: ok=%v err=%v snap=%+v", ok, err, snap)
	}
}
