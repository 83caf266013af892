package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"jarvis/internal/plan"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/transport"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
)

// runPipeline builds an all-local S2S pipeline with full budget and unit
// load factors, fed by a deterministic generator.
func runPipeline(t *testing.T, seed uint64) (*stream.Pipeline, func(int64) telemetry.Batch) {
	t.Helper()
	pipe, err := stream.NewPipeline(plan.S2SProbe(), stream.DefaultOptions(4.0, 0))
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]float64, len(pipe.Query().Ops))
	for i := range ones {
		ones[i] = 1
	}
	if err := pipe.SetLoadFactors(ones); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(seed))
	return pipe, gen.NextWindow
}

// stageKeyRows flattens snapshot stages into (stage, window, key) → row
// for order-independent comparison.
func stageKeyRows(t *testing.T, stages map[int]telemetry.Batch) map[[3]int64]telemetry.AggRow {
	t.Helper()
	out := make(map[[3]int64]telemetry.AggRow)
	for st, rows := range stages {
		for _, rec := range rows {
			row, ok := rec.Data.(*telemetry.AggRow)
			if !ok {
				t.Fatalf("stage %d holds %T", st, rec.Data)
			}
			k := [3]int64{int64(st), row.Window, int64(row.Key.Num)}
			if prev, dup := out[k]; dup {
				t.Fatalf("duplicate row for %v: %+v vs %+v", k, prev, row)
			}
			out[k] = *row
		}
	}
	return out
}

// TestDeltaChainReconstruction proves Store.Latest rebuilds exactly the
// state a full snapshot would have captured, from a base + delta chain
// spanning epochs with window turnover (tombstones).
func TestDeltaChainReconstruction(t *testing.T) {
	pipe, next := runPipeline(t, 5)
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Base after 2 epochs.
	for e := 0; e < 2; e++ {
		pipe.RunEpoch(next(1_000_000))
	}
	lastID, err := store.Save(&Snapshot{Seq: 2, Checkpoint: pipe.Capture(true)})
	if err != nil {
		t.Fatal(err)
	}

	// Deltas across 12 more epochs: the 10 s window rolls over at least
	// once, so closed-window tombstones are exercised.
	for e := 3; e <= 14; e++ {
		pipe.RunEpoch(next(1_000_000))
		d := pipe.Capture(false)
		if !d.Delta {
			t.Fatal("Capture(false) did not mark the capture as delta")
		}
		lastID, err = store.Save(&Snapshot{Seq: uint64(e), Checkpoint: d, BaseID: lastID})
		if err != nil {
			t.Fatal(err)
		}
	}

	got, ok, err := store.Latest()
	if err != nil || !ok {
		t.Fatalf("latest: ok=%v err=%v", ok, err)
	}
	if got.Seq != 14 {
		t.Fatalf("reconstructed seq %d, want 14", got.Seq)
	}
	want := pipe.Capture(true) // ground truth: full capture of the live state
	gotRows, wantRows := stageKeyRows(t, got.Stages), stageKeyRows(t, want.Stages)
	if len(gotRows) != len(wantRows) {
		t.Fatalf("reconstructed %d rows, want %d", len(gotRows), len(wantRows))
	}
	for k, w := range wantRows {
		g, ok := gotRows[k]
		if !ok {
			t.Fatalf("row %v missing from reconstruction", k)
		}
		if g != w {
			t.Fatalf("row %v: reconstructed %+v, want %+v", k, g, w)
		}
	}
}

// TestDeltaRestoreMatchesFullRestore restores a fresh pipeline from the
// reconstructed chain and checks its subsequent output is identical to
// the original pipeline's.
func TestDeltaRestoreMatchesFullRestore(t *testing.T) {
	pipe, next := runPipeline(t, 6)
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	arec := NewAgentRecovery(store, 1, pipe, nil)
	var inputs []telemetry.Batch
	for e := 1; e <= 9; e++ {
		in := next(1_000_000)
		inputs = append(inputs, in)
		pipe.RunEpoch(in)
		if err := arec.AfterEpoch(uint64(e)); err != nil {
			t.Fatal(err)
		}
	}
	// Manifest must hold one full base + deltas.
	ents, err := store.entries()
	if err != nil {
		t.Fatal(err)
	}
	deltas := 0
	for _, e := range ents {
		if e.delta {
			deltas++
		}
	}
	if deltas < 7 {
		t.Fatalf("expected ≥7 delta snapshots, manifest has %d of %d", deltas, len(ents))
	}

	fresh, _ := runPipeline(t, 6)
	rec2 := NewAgentRecovery(store, 1, fresh, nil)
	resume, ok, err := rec2.Restore()
	if err != nil || !ok || resume != 9 {
		t.Fatalf("restore: resume=%d ok=%v err=%v", resume, ok, err)
	}
	// Drive both pipelines forward with identical input; epoch 10+ output
	// must match exactly.
	gen2 := workload.NewPingGen(workload.DefaultPingConfig(6))
	for range inputs {
		gen2.NextWindow(1_000_000) // fast-forward the fresh pipeline's source
	}
	for e := 10; e <= 13; e++ {
		in := next(1_000_000)
		in2 := gen2.NextWindow(1_000_000)
		r1 := pipe.RunEpoch(in)
		r2 := fresh.RunEpoch(in2)
		var rows1, rows2 telemetry.Batch
		r1.Results.AppendRows(&rows1)
		r2.Results.AppendRows(&rows2)
		if !bytes.Equal(canonicalBatch(t, rows1), canonicalBatch(t, rows2)) {
			t.Fatalf("epoch %d: restored pipeline diverged (%d vs %d result rows)", e, len(rows2), len(rows1))
		}
	}
}

// TestStoreCompactRetainsNewestChains saves several chains and checks
// compaction drops old files while the newest chains stay restorable.
func TestStoreCompactRetainsNewestChains(t *testing.T) {
	pipe, next := runPipeline(t, 7)
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.SetRetention(0) // no auto-compaction; test calls Compact directly
	arec := NewAgentRecovery(store, 1, pipe, nil)
	// Three whole chains (a base + DefaultMaxChain deltas each) and the
	// base of a fourth.
	const link = DefaultMaxChain + 1
	const last = 3*link + 1
	for e := 1; e <= last; e++ {
		pipe.RunEpoch(next(1_000_000))
		if err := arec.AfterEpoch(uint64(e)); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := store.Snapshots()
	if before != last {
		t.Fatalf("expected %d snapshots before compaction, got %d", last, before)
	}
	if err := store.Compact(2); err != nil {
		t.Fatal(err)
	}
	after, err := store.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if after != link+1 { // the newest whole chain + the newest base
		t.Fatalf("compaction kept %d of %d entries, want %d", after, before, link+1)
	}
	// Old snapshot files are gone from disk.
	files, _ := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
	if len(files) != after {
		t.Fatalf("%d snapshot files for %d manifest entries", len(files), after)
	}
	got, ok, err := store.Latest()
	if err != nil || !ok || got.Seq != last {
		t.Fatalf("latest after compaction: ok=%v err=%v seq=%d", ok, err, got.Seq)
	}
	// The store keeps accepting saves after compaction (manifest handle
	// was re-established).
	pipe.RunEpoch(next(1_000_000))
	if err := arec.AfterEpoch(last + 1); err != nil {
		t.Fatal(err)
	}
	got, ok, _ = store.Latest()
	if !ok || got.Seq != last+1 {
		t.Fatalf("latest after post-compaction save: %+v", got)
	}
}

func canonicalBatch(t *testing.T, rows telemetry.Batch) []byte {
	t.Helper()
	var buf []byte
	var err error
	for _, rec := range rows {
		buf, err = wire.EncodeRecord(buf, rec)
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// TestSaveFailureForcesFullBase: when a snapshot save fails after the
// capture already advanced the dirty generation, the next snapshot must
// be a fresh full base — chaining a later delta over the lost rows
// would silently drop them from the reconstruction.
func TestSaveFailureForcesFullBase(t *testing.T) {
	pipe, next := runPipeline(t, 8)
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	arec := NewAgentRecovery(store, 1, pipe, nil)
	for e := 1; e <= 3; e++ {
		pipe.RunEpoch(next(1_000_000))
		if err := arec.AfterEpoch(uint64(e)); err != nil {
			t.Fatal(err)
		}
	}
	// Make the next save fail: the store directory vanishes.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	pipe.RunEpoch(next(1_000_000))
	if err := arec.AfterEpoch(4); err == nil {
		t.Fatal("save into a missing store dir did not error")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	_ = store.Close() // drop the manifest handle pointing at the unlinked file
	pipe.RunEpoch(next(1_000_000))
	if err := arec.AfterEpoch(5); err != nil {
		t.Fatal(err)
	}
	ents, err := store.entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].delta {
		t.Fatalf("post-failure snapshot must be a full base, manifest: %+v", ents)
	}
	// The full base carries everything, including epoch 4's rows that the
	// failed save lost.
	got, ok, err := store.Latest()
	if err != nil || !ok {
		t.Fatalf("latest: ok=%v err=%v", ok, err)
	}
	want := pipe.Capture(true)
	gotRows, wantRows := stageKeyRows(t, got.Stages), stageKeyRows(t, want.Stages)
	if len(gotRows) != len(wantRows) {
		t.Fatalf("post-failure base has %d rows, want %d", len(gotRows), len(wantRows))
	}
	for k, w := range wantRows {
		if g := gotRows[k]; g != w {
			t.Fatalf("row %v: %+v, want %+v", k, g, w)
		}
	}
}

// TestAgentSnapshotPersistsTerm proves the HA fencing term survives an
// agent restart: a restarted agent must keep carrying the promoted term
// in its hellos, or a rejoining stale primary would accept it and split
// the output.
func TestAgentSnapshotPersistsTerm(t *testing.T) {
	pipe, next := runPipeline(t, 2)
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ship := transport.NewDurableShipper(1, 8)
	ship.SetTerm(3) // as if a promoted standby's ack taught it term 3
	arec := NewAgentRecovery(store, 1, pipe, ship)
	res := pipe.RunEpoch(next(1_000_000))
	if err := ship.ShipEpoch(res); err != nil {
		t.Fatal(err)
	}
	if err := arec.AfterEpoch(ship.Seq()); err != nil {
		t.Fatal(err)
	}

	fresh, _ := runPipeline(t, 0)
	ship2 := transport.NewDurableShipper(1, 8)
	arec2 := NewAgentRecovery(store, 1, fresh, ship2)
	if _, ok, err := arec2.Restore(); err != nil || !ok {
		t.Fatalf("restore: ok=%v err=%v", ok, err)
	}
	if got := ship2.Term(); got != 3 {
		t.Fatalf("restored shipper term = %d, want 3", got)
	}
}
