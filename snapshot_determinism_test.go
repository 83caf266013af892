package jarvis_test

import (
	"bytes"
	"testing"

	"jarvis/internal/benchcase"
	"jarvis/internal/checkpoint"
	"jarvis/internal/plan"
	"jarvis/internal/stream"
)

// TestNumericCaptureDeterministic pins that numerically keyed group
// state captures byte for byte: two fresh S2SProbe SP engines that replay
// the same shipped epoch (benchcase.ShippedEpoch) encode identical full
// snapshots, and an engine restored from that snapshot captures the same
// bytes again. GroupAgg walks a window's numeric groups in insertion
// order, and a restore inserts them in snapshot order. Only numeric keys
// are covered: string-keyed GroupAgg groups (the str map) and
// GroupQuantile's windows are still captured in map order,
// so the snapshots of string-keyed and quantile queries are not yet
// byte-deterministic.
func TestNumericCaptureDeterministic(t *testing.T) {
	_, epoch, err := benchcase.ShippedEpoch()
	if err != nil {
		t.Fatal(err)
	}
	encode := func(e *stream.SPEngine) []byte {
		var buf bytes.Buffer
		if err := (&checkpoint.Snapshot{Checkpoint: e.Capture(true), Seq: 1}).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	replayed := func() *stream.SPEngine {
		e, err := stream.NewSPEngine(plan.S2SProbe())
		if err != nil {
			t.Fatal(err)
		}
		if err := benchcase.ReplayEpoch(e, epoch); err != nil {
			t.Fatal(err)
		}
		return e
	}
	first := replayed()
	a, b := encode(first), encode(replayed())
	if !bytes.Equal(a, b) {
		t.Fatalf("two engines fed the same epoch captured different snapshots (%d and %d bytes)", len(a), len(b))
	}

	snap, err := checkpoint.DecodeSnapshot(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Stages) == 0 {
		t.Fatal("the snapshot holds no group state — the comparison is vacuous")
	}
	restored, err := stream.NewSPEngine(plan.S2SProbe())
	if err != nil {
		t.Fatal(err)
	}
	wms := map[uint32]int64{}
	first.SourceWatermarks(func(source uint32, wm int64) { wms[source] = wm })
	if err := restored.LoadSnapshot(snap.Stages, wms); err != nil {
		t.Fatal(err)
	}
	if c := encode(restored); !bytes.Equal(a, c) {
		t.Fatalf("the restored engine re-captured a different snapshot (%d bytes, want %d)", len(c), len(a))
	}
	t.Logf("three captures of %d bytes each", len(a))
}
