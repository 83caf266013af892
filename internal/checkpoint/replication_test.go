package checkpoint_test

import (
	"context"
	"net"
	"path/filepath"
	"testing"
	"time"

	"jarvis/internal/checkpoint"
	"jarvis/internal/core"
	"jarvis/internal/ha"
	"jarvis/internal/plan"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
)

// TestReplicatedSnapshotEncodedOnce: a snapshot's rows are encoded once
// on their whole way primary store → publisher → standby store. Across
// Chain.Save + PublishSnapshot + the standby's apply and local save, the
// body-encode counter moves by one per snapshot the primary takes — and
// by one more only where the standby's chain re-bases on its folded
// state, which no bytes exist for.
func TestReplicatedSnapshotEncodedOnce(t *testing.T) {
	dir := t.TempDir()
	store, err := checkpoint.OpenStore(filepath.Join(dir, "primary"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	pub := ha.NewPublisher(store, filepath.Join(dir, "primary", "results.log"), 1, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = pub.Serve(ctx, ln) }()
	defer pub.Close()

	proc, err := core.NewProcessor(plan.S2SProbe())
	if err != nil {
		t.Fatal(err)
	}
	st, err := ha.NewStandby(proc, filepath.Join(dir, "standby"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.ResultLog().Close()
	defer st.Store().Close()
	go st.Run(ctx, ln.Addr().String())
	for deadline := time.Now().Add(5 * time.Second); pub.Standbys() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("standby never attached")
		}
	}

	// The primary captures a base and then only deltas (saved straight
	// into the store: its own chain would re-base in step with the
	// standby's and hide the standby's re-base behind a replicated base).
	replicate := func(id uint64) {
		t.Helper()
		agg := telemetry.NewAggRow(telemetry.NumKey(id), 0, float64(id))
		snap := &checkpoint.Snapshot{
			Checkpoint: stream.Checkpoint{
				Watermark: int64(id) * 1_000_000,
				Stages:    map[int]telemetry.Batch{2: {telemetry.NewAggRecord(agg, 10_000_000)}},
			},
			Seq:     id,
			Term:    1,
			Sources: map[uint32]checkpoint.SourceState{1: {Watermark: int64(id) * 1_000_000, AppliedSeq: id}},
		}
		if id > 1 {
			snap.Delta, snap.BaseID = true, id-1
			snap.Meta = map[int]stream.StageDelta{2: {}}
		}
		got, err := store.Save(snap)
		if err != nil || got != id {
			t.Fatalf("save %d: id %d err %v", id, got, err)
		}
		pub.PublishSnapshot(id, snap)
		if !pub.WaitDurable(id, 5*time.Second) {
			t.Fatalf("standby never acked snapshot %d", id)
		}
	}
	start := checkpoint.BodyEncodes()
	for id := uint64(1); id <= checkpoint.DefaultMaxChain+1; id++ {
		replicate(id)
		if got := checkpoint.BodyEncodes() - start; got != int64(id) {
			t.Fatalf("after %d replicated snapshots the body was encoded %d times: want once each, on the primary", id, got)
		}
	}
	// The next delta is one too many for the standby's chain: it writes
	// its folded state as a local base, and that is an encode.
	replicate(checkpoint.DefaultMaxChain + 2)
	if got, want := checkpoint.BodyEncodes()-start, int64(checkpoint.DefaultMaxChain+2+1); got != want {
		t.Fatalf("across the standby's local re-base the body was encoded %d times, want %d", got, want)
	}
	if snap, ok, err := st.Store().Latest(); err != nil || !ok || snap.Seq != checkpoint.DefaultMaxChain+2 || len(snap.Stages[2]) != checkpoint.DefaultMaxChain+2 {
		t.Fatalf("standby store after the run: ok=%v err=%v", ok, err)
	}
}
