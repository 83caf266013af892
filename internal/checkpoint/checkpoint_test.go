package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/transport"
)

func sampleSnapshot() *Snapshot {
	agg := telemetry.NewAggRow(telemetry.NumKey(42), 0, 17)
	agg.Observe(3)
	return &Snapshot{
		Checkpoint: stream.Checkpoint{
			Watermark: 9_000_000,
			Stages: map[int]telemetry.Batch{
				2: {telemetry.NewAggRecord(agg, 10_000_000)},
			},
		},
		Seq:       9,
		EmittedWM: 8_000_000,
		Acked:     7,
		Sources: map[uint32]SourceState{
			1: {Watermark: 9_000_000, AppliedSeq: 9},
			2: {Watermark: 8_500_000, AppliedSeq: 8},
		},
		Factors: []float64{1, 0.5, 0.25},
		Pending: []transport.PendingEpoch{
			{Seq: 8, Data: []byte{1, 2, 3}},
			{Seq: 9, Data: []byte{4, 5}},
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap := sampleSnapshot()
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != snap.Seq || got.Watermark != snap.Watermark || got.EmittedWM != snap.EmittedWM || got.Acked != snap.Acked {
		t.Fatalf("header: %+v", got)
	}
	if len(got.Stages) != 1 || len(got.Stages[2]) != 1 {
		t.Fatalf("stages: %+v", got.Stages)
	}
	a := snap.Stages[2][0].Data.(*telemetry.AggRow)
	b := got.Stages[2][0].Data.(*telemetry.AggRow)
	if *a != *b {
		t.Fatalf("stage row: %+v vs %+v", a, b)
	}
	if len(got.Sources) != 2 || got.Sources[2].AppliedSeq != 8 || got.Sources[1].Watermark != 9_000_000 {
		t.Fatalf("sources: %+v", got.Sources)
	}
	if len(got.Factors) != 3 || got.Factors[1] != 0.5 {
		t.Fatalf("factors: %v", got.Factors)
	}
	if len(got.Pending) != 2 || got.Pending[1].Seq != 9 || !bytes.Equal(got.Pending[0].Data, []byte{1, 2, 3}) {
		t.Fatalf("pending: %+v", got.Pending)
	}
}

func TestStoreSaveLatest(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Latest(); err != nil || ok {
		t.Fatalf("fresh store: ok=%v err=%v", ok, err)
	}
	first := sampleSnapshot()
	first.Seq = 3
	if _, err := st.Save(first); err != nil {
		t.Fatal(err)
	}
	second := sampleSnapshot()
	second.Seq = 6
	id, err := st.Save(second)
	if err != nil {
		t.Fatal(err)
	}
	name := SnapshotFileName(id)
	got, ok, err := st.Latest()
	if err != nil || !ok || got.Seq != 6 {
		t.Fatalf("latest: ok=%v err=%v snap=%+v", ok, err, got)
	}

	// Reopening resumes ids and still finds the newest snapshot.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, _ = st2.Latest()
	if !ok || got.Seq != 6 {
		t.Fatalf("latest after reopen: %+v", got)
	}

	// Corrupting the newest file falls back to the previous snapshot.
	if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok, err = st2.Latest()
	if err != nil || !ok || got.Seq != 3 {
		t.Fatalf("fallback: ok=%v err=%v snap=%+v", ok, err, got)
	}
}

// TestStoreSkipsOtherFormatVersions: the manifest's version names the
// encoding of the files it lists, so a directory whose lines all carry
// another version — a wire-v3 build's snapshots, whose float columns
// this decoder would misread without an error, or a wire-v2 build's,
// whose integer columns it cannot read — restores as empty instead of
// being decoded, and the store carries on from id 1.
func TestStoreSkipsOtherFormatVersions(t *testing.T) {
	for _, old := range []string{"v3 ", "v2 "} {
		t.Run(old, func(t *testing.T) { storeSkipsVersion(t, old) })
	}
}

func storeSkipsVersion(t *testing.T, oldVersion string) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(3); seq <= 4; seq++ {
		snap := sampleSnapshot()
		snap.Seq = seq
		if _, err := st.Save(snap); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, manifestName)
	manifest, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(manifest, []byte("v4 ")); n != 2 {
		t.Fatalf("manifest holds %d v4 lines, want 2:\n%s", n, manifest)
	}
	if err := os.WriteFile(path, bytes.ReplaceAll(manifest, []byte("v4 "), []byte(oldVersion)), 0o644); err != nil {
		t.Fatal(err)
	}

	old, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap, ok, err := old.Latest(); err != nil || ok {
		t.Fatalf("a store of %slines restored %+v (ok=%v err=%v)", oldVersion, snap, ok, err)
	}
	fresh := sampleSnapshot()
	fresh.Seq = 11
	if id, err := old.Save(fresh); err != nil || id != 1 {
		t.Fatalf("save into a store of %slines: id %d err %v", oldVersion, id, err)
	}
	if got, ok, err := old.Latest(); err != nil || !ok || got.Seq != 11 {
		t.Fatalf("latest after the save: ok=%v err=%v snap=%+v", ok, err, got)
	}
}

func resultRow(key uint64, window, endMicros int64, v float64) telemetry.Record {
	agg := telemetry.NewAggRow(telemetry.NumKey(key), window, v)
	return telemetry.NewAggRecord(agg, endMicros)
}

func TestResultLogExactlyOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.log")
	l, err := OpenResultLog(path)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := l.Append(telemetry.Batch{resultRow(1, 0, 10, 5), resultRow(2, 0, 10, 6)})
	if err != nil || len(kept) != 2 {
		t.Fatalf("first append: kept=%d err=%v", len(kept), err)
	}
	// A replayed duplicate batch (same window end) is fully suppressed.
	kept, err = l.Append(telemetry.Batch{resultRow(1, 0, 10, 5), resultRow(2, 0, 10, 6)})
	if err != nil || len(kept) != 0 {
		t.Fatalf("duplicate append: kept=%d err=%v", len(kept), err)
	}
	// A mixed batch keeps only the new window.
	kept, err = l.Append(telemetry.Batch{resultRow(1, 0, 10, 5), resultRow(1, 1, 20, 7)})
	if err != nil || len(kept) != 1 || kept[0].Time != 20 {
		t.Fatalf("mixed append: kept=%+v err=%v", kept, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen recovers the high-water mark; duplicates stay suppressed.
	l2, err := OpenResultLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if l2.EmittedWM() != 20 || l2.Rows() != 3 {
		t.Fatalf("recovered wm=%d rows=%d", l2.EmittedWM(), l2.Rows())
	}
	kept, err = l2.Append(telemetry.Batch{resultRow(1, 1, 20, 7)})
	if err != nil || len(kept) != 0 {
		t.Fatalf("append after reopen: kept=%d err=%v", len(kept), err)
	}
	_ = l2.Close()

	rows, err := ReadResultLog(path)
	if err != nil || len(rows) != 3 {
		t.Fatalf("read back: rows=%d err=%v", len(rows), err)
	}
}

func TestResultLogTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.log")
	l, err := OpenResultLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(telemetry.Batch{resultRow(1, 0, 10, 5)}); err != nil {
		t.Fatal(err)
	}
	_ = l.Close()
	// Simulate a crash mid-append: garbage half-frame at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 1, 0, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	l2, err := OpenResultLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Rows() != 1 || l2.EmittedWM() != 10 {
		t.Fatalf("after torn tail: rows=%d wm=%d", l2.Rows(), l2.EmittedWM())
	}
	// The log is appendable again after truncation.
	kept, err := l2.Append(telemetry.Batch{resultRow(1, 1, 20, 9)})
	if err != nil || len(kept) != 1 {
		t.Fatalf("append after truncate: kept=%d err=%v", len(kept), err)
	}
	_ = l2.Close()
	rows, err := ReadResultLog(path)
	if err != nil || len(rows) != 2 {
		t.Fatalf("read back: rows=%d err=%v", len(rows), err)
	}
}

// pinnedResultBatches are the three appends testdata/resultlog.pinned
// holds: aggregate and quantile rows with numeric and string keys over
// three 10 s windows, each stamped with its window's end.
func pinnedResultBatches() []telemetry.Batch {
	const win = 10_000_000
	agg := func(key telemetry.GroupKey, w, count int64, sum, min, max float64) telemetry.Record {
		return telemetry.NewAggRecord(telemetry.AggRow{Key: key, Window: w, Count: count, Sum: sum, Min: min, Max: max}, (w+1)*win)
	}
	quant := func(key telemetry.GroupKey, w int64, counts ...int64) telemetry.Record {
		q := &telemetry.QuantileRow{Key: key, Window: w, Lo: 0, Hi: 1000, Counts: counts}
		for _, c := range counts {
			q.Total += c
		}
		return telemetry.Record{Time: (w + 1) * win, Window: w, WireSize: q.WireSize(), Data: q}
	}
	return []telemetry.Batch{
		{
			agg(telemetry.NumKey(0x0a000001_0a000002), 0, 3, 1500.5, 250.25, 750),
			agg(telemetry.StrKey("tenant-a|cpu|3"), 0, 1, 42, 42, 42),
			quant(telemetry.StrKey("svc|lat"), 0, 0, 4, 9, 2, 1),
		},
		{
			quant(telemetry.NumKey(7), 1, 1, 0, 0, 0, 0, 3),
			agg(telemetry.NumKey(0x0a000001_0a000002), 1, 2, -8.5, -10, 1.5),
		},
		{
			agg(telemetry.StrKey("tenant-b|mem|0"), 2, 5, 5e9, 1e-3, 4.99e9),
			agg(telemetry.NumKey(0), 2, 1, 0, 0, 0),
			quant(telemetry.StrKey("svc|lat"), 2, 2, 2, 2, 2, 2),
		},
	}
}

// TestResultLogFormatPinned pins the result log's on-disk bytes: one
// count-prefixed row frame per append. testdata/resultlog.pinned was
// written once, by appending pinnedResultBatches to a fresh log with the
// build whose data frames could still be written as row frames, and is
// never regenerated. The rows must read back from it, reopening it must
// recover the row count and emitted watermark, and appending the same
// rows to a fresh log must reproduce it byte for byte — which fails if
// result frames ever go columnar.
func TestResultLogFormatPinned(t *testing.T) {
	const pinned = "testdata/resultlog.pinned"
	want, err := os.ReadFile(pinned)
	if err != nil {
		t.Fatal(err)
	}
	var rows telemetry.Batch
	for _, b := range pinnedResultBatches() {
		rows = append(rows, b...)
	}
	got, err := ReadResultLog(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("pinned log reads back as %v, want %v", got, rows)
	}

	dir := t.TempDir()
	reopened := filepath.Join(dir, "reopened.log")
	if err := os.WriteFile(reopened, want, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenResultLog(reopened)
	if err != nil {
		t.Fatal(err)
	}
	if l.Rows() != int64(len(rows)) || l.EmittedWM() != 30_000_000 {
		t.Fatalf("reopened pinned log: rows=%d wm=%d, want %d and 30000000", l.Rows(), l.EmittedWM(), len(rows))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := filepath.Join(dir, "fresh.log")
	l, err = OpenResultLog(fresh)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range pinnedResultBatches() {
		if kept, err := l.Append(b); err != nil || len(kept) != len(b) {
			t.Fatalf("append kept %d of %d rows: %v", len(kept), len(b), err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("a fresh log of the pinned rows is %d bytes unlike the pinned %d:\n%x\n%x", len(data), len(want), data, want)
	}
}

// TestAbandonDropsQueuedSaves holds one async save in progress with two
// queued behind it: Abandon lets the one in progress complete, never
// runs the queued ones, and leaves nothing for a later Close.
func TestAbandonDropsQueuedSaves(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var ran []uint64
	s := &saver{do: func(job *saveJob) error {
		if job.snap.Seq == 1 {
			close(started)
			<-release
		}
		ran = append(ran, job.snap.Seq)
		return nil
	}}
	s.SetAsync(true)
	aw := s.aw
	for seq := uint64(1); seq <= 3; seq++ {
		if err := s.submit(&saveJob{snap: &Snapshot{Seq: seq}}, false); err != nil {
			t.Fatal(err)
		}
		if seq == 1 {
			<-started
		}
	}
	abandoned := make(chan struct{})
	go func() { s.Abandon(); close(abandoned) }()
	// Abandon empties the queue, then waits on the save in progress.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		aw.mu.Lock()
		queued := len(aw.q)
		aw.mu.Unlock()
		if queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("Abandon left %d queued saves to run", queued)
		}
	}
	close(release)
	<-abandoned
	if !slices.Equal(ran, []uint64{1}) {
		t.Fatalf("saves run = %v, want only the one in progress [1]", ran)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after Abandon = %v", err)
	}
}
