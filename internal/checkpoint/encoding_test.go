package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
)

func encodeBytes(t *testing.T, snap *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSavedSnapshotRemembersItsBytes: Save encodes a snapshot once and
// the snapshot keeps the bytes. Encode hands them back; a second Save, in
// any store, writes them under a fresh header without touching the rows;
// Decode gives a snapshot that arrived as bytes the same standing.
func TestSavedSnapshotRemembersItsBytes(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	snap := sampleSnapshot()
	snap.Delta, snap.BaseID = true, 7
	snap.Meta = map[int]stream.StageDelta{2: {Closed: []int64{3}}}

	before := bodyEncodes.Load()
	id, err := store.Save(snap)
	if err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join(store.Dir(), SnapshotFileName(id)))
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeBytes(t, snap); !bytes.Equal(got, file) {
		t.Fatalf("Encode of a saved snapshot gives %d bytes that are not the %d Save wrote", len(got), len(file))
	}
	if n := bodyEncodes.Load() - before; n != 1 {
		t.Fatalf("Save + Encode encoded the body %d times, want once", n)
	}

	// A header field changes (what Chain.Save and the standby do): the body
	// is not encoded again, and the bytes say the new header.
	other, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	moved := *snap
	moved.BaseID, moved.Term = 0, 5
	id2, err := other.Save(&moved)
	if err != nil {
		t.Fatal(err)
	}
	if n := bodyEncodes.Load() - before; n != 1 {
		t.Fatalf("re-saving under another header encoded the body again (%d encodes)", n)
	}
	file2, err := os.ReadFile(filepath.Join(other.Dir(), SnapshotFileName(id2)))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(file2, file) || !bytes.Equal(file2[moved.enc.body:], file[snap.enc.body:]) {
		t.Fatal("the re-saved file is not a fresh header over the same body")
	}
	for name, data := range map[string][]byte{"first": file, "re-saved": file2} {
		got, err := other.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantBase, wantTerm := uint64(7), uint64(0)
		if name == "re-saved" {
			wantBase, wantTerm = 0, 5
		}
		if got.BaseID != wantBase || got.Term != wantTerm || !got.Delta || got.Seq != snap.Seq || len(got.Meta[2].Closed) != 1 ||
			!bytes.Equal(canonicalBatch(t, got.Stages[2]), canonicalBatch(t, snap.Stages[2])) {
			t.Fatalf("%s file decodes to %+v", name, got)
		}
		// A decoded snapshot carries the bytes it came from.
		if again := encodeBytes(t, got); !bytes.Equal(again, data) {
			t.Fatalf("%s: Encode of a decoded snapshot is not the bytes it was decoded from", name)
		}
	}
	if n := bodyEncodes.Load() - before; n != 1 {
		t.Fatalf("decoding and re-encoding encoded a body (%d encodes)", n)
	}
}

// TestEditedSnapshotForgetsItsBytes: whatever changes a snapshot's body
// after its bytes were remembered must drop them — ApplyDelta folding
// into a saved (or decoded) base, Full stripping a delta's Meta. Remove
// either invalidation and this writes the stale body.
func TestEditedSnapshotForgetsItsBytes(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	row := func(key uint64, v float64) telemetry.Record {
		return telemetry.NewAggRecord(telemetry.NewAggRow(telemetry.NumKey(key), 0, v), 10_000_000)
	}
	base := &Snapshot{
		Checkpoint: stream.Checkpoint{Watermark: 1, Stages: map[int]telemetry.Batch{2: {row(1, 1)}}},
		Seq:        1,
	}
	delta := &Snapshot{
		Checkpoint: stream.Checkpoint{
			Watermark: 2, Delta: true,
			Stages: map[int]telemetry.Batch{2: {row(2, 2)}},
			Meta:   map[int]stream.StageDelta{2: {}},
		},
		Seq: 2, BaseID: 1,
	}
	for _, snap := range []*Snapshot{base, delta} {
		if _, err := store.Save(snap); err != nil {
			t.Fatal(err)
		}
	}

	// The standby's re-base: the folded state, saved as a base.
	folded := ApplyDelta(base, delta)
	rebased := folded.Full()
	got, err := DecodeSnapshot(bytes.NewReader(encodeBytes(t, &rebased)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 2 || len(got.Stages[2]) != 2 {
		t.Fatalf("a base folded past its remembered bytes encodes seq %d with %d rows, want seq 2 with 2", got.Seq, len(got.Stages[2]))
	}

	// The attach resync: a delta's state standing as a full snapshot.
	full := delta.Full()
	got, err = DecodeSnapshot(bytes.NewReader(encodeBytes(t, &full)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Delta || got.BaseID != 0 || len(got.Meta) != 0 {
		t.Fatalf("Full of a saved delta still encodes delta=%v base=%d meta=%v", got.Delta, got.BaseID, got.Meta)
	}
	// ... and the delta itself still has its bytes.
	if delta.enc.data == nil || !delta.Delta || len(delta.Meta) != 1 {
		t.Fatal("Full changed the snapshot it copied")
	}
}
