package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"jarvis/internal/obs"
	"jarvis/internal/plan"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/workload"
)

// shipFlightEpochs runs a sequenced shipper over a pipe into rc for the
// given epochs (fixed workload seed, so the stream is reproducible) and
// waits for the connection to wind down. durMicros sizes the data
// epochs; the last three are empty, striding event time by 2s each so
// the 10s S2SProbe window closes even for short runs.
func shipFlightEpochs(t *testing.T, rc *Receiver, source uint32, epochs int, durMicros int64) {
	t.Helper()
	shipEpochsLF(t, rc, source, epochs, durMicros, []float64{1, 1, 1})
}

// shipEpochsLF is shipFlightEpochs at the given load factors: below 1 a
// stage drains part of its input, so an epoch travels as several data
// frames instead of one.
func shipEpochsLF(t *testing.T, rc *Receiver, source uint32, epochs int, durMicros int64, lf []float64) {
	t.Helper()
	q := plan.S2SProbe()
	src, err := stream.NewPipeline(q, stream.DefaultOptions(4.0, 0))
	if err != nil {
		t.Fatal(err)
	}
	_ = src.SetLoadFactors(lf)
	cfg := workload.DefaultPingConfig(77)
	cfg.Peers = 40 // few distinct pair keys keeps dumps and goldens small
	gen := workload.NewPingGen(cfg)

	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- rc.HandleConn(server) }()
	ship := NewDurableShipper(source, 0)
	if err := ship.ConnectConn(client); err != nil {
		t.Fatal(err)
	}
	for e := 1; e <= epochs; e++ {
		var batch telemetry.Batch
		if e <= epochs-3 {
			batch = gen.NextWindow(durMicros)
		} else {
			src.ObserveTime(int64(e) * 2_000_000)
		}
		if err := ship.ShipEpoch(src.RunEpoch(batch)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for ship.Acked() < uint64(epochs) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ship.Close()
	<-done
}

// renderRows canonicalizes an Advance batch: one line per row, sorted,
// so two engines fed the same epochs render byte-identical logs.
func renderRows(rows telemetry.Batch) []byte {
	lines := make([]string, 0, len(rows))
	for _, rec := range rows {
		row, ok := rec.Data.(*telemetry.AggRow)
		if !ok {
			lines = append(lines, fmt.Sprintf("t=%d other=%T", rec.Time, rec.Data))
			continue
		}
		lines = append(lines, fmt.Sprintf("w=%d key=%d/%q n=%d sum=%g min=%g max=%g",
			row.Window, row.Key.Num, row.Key.Str, row.Count, row.Sum, row.Min, row.Max))
	}
	sort.Strings(lines)
	var buf bytes.Buffer
	for _, l := range lines {
		buf.WriteString(l)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func flightTestReceiver(t *testing.T) *Receiver {
	t.Helper()
	engine, err := stream.NewSPEngine(plan.S2SProbe())
	if err != nil {
		t.Fatal(err)
	}
	rc := NewReceiver(engine)
	rc.RegisterSource(5)
	return rc
}

// ringTestReceiver is flightTestReceiver with a ring-only recorder armed.
func ringTestReceiver(t *testing.T) (*Receiver, *TrafficRecorder) {
	t.Helper()
	rc := flightTestReceiver(t)
	rec := NewTrafficRecorder(nil)
	rec.ArmRing(rc.Counters())
	rc.SetTrafficRecorder(rec)
	return rc, rec
}

// recordTrafficEpochs ships a fixed reproducible stream into a fresh
// receiver with the stream recorder armed and returns the capture plus
// the original receiver for state comparison.
func recordTrafficEpochs(t *testing.T, epochs int, durMicros int64) ([]byte, *Receiver) {
	t.Helper()
	rc := flightTestReceiver(t)
	var buf bytes.Buffer
	tr := NewTrafficRecorder(&buf)
	rc.SetTrafficRecorder(tr)
	shipFlightEpochs(t, rc, 5, epochs, durMicros)
	if err := tr.Err(); err != nil {
		t.Fatalf("recorder error: %v", err)
	}
	return buf.Bytes(), rc
}

// ringDumpEpochs ships the same stream with only the ring armed and
// returns a manual dump.
func ringDumpEpochs(t *testing.T, epochs int, durMicros int64) []byte {
	t.Helper()
	rc, rec := ringTestReceiver(t)
	shipFlightEpochs(t, rc, 5, epochs, durMicros)
	dump := rec.Trigger("manual:test")
	if dump == nil {
		t.Fatal("no dump produced with a connection recorded")
	}
	return dump
}

// replayTwice replays a capture (or dump) through two fresh receivers
// and requires both to apply wantSeq and to agree; it returns the rows.
func replayTwice(t *testing.T, capture []byte, wantSeq uint64) []byte {
	t.Helper()
	var replayed [2][]byte
	for i := range replayed {
		fresh := flightTestReceiver(t)
		n, err := ReplayTraffic(fresh, capture)
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("replayed %d conns, want 1", n)
		}
		if got := fresh.AppliedSeq(5); got != wantSeq {
			t.Fatalf("replay %d applied seq = %d, want %d", i, got, wantSeq)
		}
		replayed[i] = renderRows(fresh.Advance())
	}
	if !bytes.Equal(replayed[0], replayed[1]) {
		t.Fatal("two replays of the same capture disagree")
	}
	return replayed[0]
}

// TestTrafficRecordAndReplay is the stream round trip: record a full
// sequenced run, replay the capture through two fresh receivers, and
// require both to land in exactly the original engine state.
func TestTrafficRecordAndReplay(t *testing.T) {
	epochsBefore := obs.Default().Counter(CtrTrafficEpochs).Value()
	const epochs = 10
	capture, rc := recordTrafficEpochs(t, epochs, 1_000_000)
	if got := obs.Default().Counter(CtrTrafficEpochs).Value() - epochsBefore; got != epochs {
		t.Fatalf("traffic_epochs_recorded delta = %d, want %d", got, epochs)
	}
	want := renderRows(rc.Advance())
	if len(want) == 0 {
		t.Fatal("original run emitted no rows")
	}

	conns, err := ReadTrafficCapture(capture)
	if err != nil {
		t.Fatal(err)
	}
	if len(conns) != 1 || len(conns[0].Frames) < epochs {
		t.Fatalf("capture parsed to %d conns (%d frames)", len(conns), len(conns[0].Frames))
	}
	if meta, err := ReadDumpMeta(capture); err != nil || meta != nil {
		t.Fatalf("stream capture meta = %+v, %v; want none", meta, err)
	}
	if got := replayTwice(t, capture, epochs); !bytes.Equal(got, want) {
		t.Fatalf("replayed state differs from original:\n%s\nvs\n%s", got, want)
	}
}

// TestRingDumpAndReplay ships epochs with only the ring armed, takes a
// manual dump, and replays it through two fresh receivers: both must
// land in the same state as the original (and as each other). The dump's
// meta record names the reason and carries the receiver-counter deltas
// and the decisions emitted since the recorder was armed.
func TestRingDumpAndReplay(t *testing.T) {
	rc, rec := ringTestReceiver(t)
	obs.Emit(obs.Decision{Kind: "load_factors", Cause: "ring_test"})
	framesBefore := obs.Default().Counter(CtrTrafficFrames).Value()

	const epochs = 10
	shipFlightEpochs(t, rc, 5, epochs, 1_000_000)
	dump := rec.Trigger("manual:test")
	if dump == nil {
		t.Fatal("no dump produced with a live connection recorded")
	}
	if got := obs.Default().Counter(CtrTrafficFrames).Value(); got != framesBefore {
		t.Fatalf("traffic_frames_recorded moved by %d with no stream armed", got-framesBefore)
	}
	want := renderRows(rc.Advance())
	if len(want) == 0 {
		t.Fatal("original run emitted no rows")
	}

	meta, err := ReadDumpMeta(dump)
	if err != nil || meta == nil {
		t.Fatalf("dump meta = %+v, %v", meta, err)
	}
	if meta.Reason != "manual:test" || meta.Seq != 1 || meta.TsMicros == 0 {
		t.Fatalf("meta = %+v", meta)
	}
	if meta.CounterDeltas[CtrEpochsApplied] != epochs {
		t.Fatalf("counter deltas = %v, want %s=%d", meta.CounterDeltas, CtrEpochsApplied, epochs)
	}
	sawDecision := false
	for _, d := range meta.Decisions {
		sawDecision = sawDecision || (d.Kind == "load_factors" && d.Cause == "ring_test")
	}
	if !sawDecision {
		t.Fatalf("meta decisions %+v miss the one emitted since arming", meta.Decisions)
	}
	conns, err := ReadTrafficCapture(dump)
	if err != nil {
		t.Fatal(err)
	}
	if len(conns) != 1 || len(conns[0].Frames) < epochs {
		t.Fatalf("dump parsed to %d conns (%d frames)", len(conns), len(conns[0].Frames))
	}
	if src, err := conns[0].HelloSource(); err != nil || src != 5 {
		t.Fatalf("dump hello source = %d, %v; want 5", src, err)
	}

	if got := replayTwice(t, dump, epochs); !bytes.Equal(got, want) {
		t.Fatalf("replayed state differs from original:\n%s\nvs\n%s", got, want)
	}
}

// TestRingBudgetKeepsHello shrinks the ring budget below the stream
// size: old epochs must fall out, but the pinned Hello survives so the
// dump still opens with a valid handshake.
func TestRingBudgetKeepsHello(t *testing.T) {
	rc, rec := ringTestReceiver(t)
	rec.budget = 1500 // the 10-epoch stream is ~2 KB, its largest epoch ~1.1 KB
	shipFlightEpochs(t, rc, 5, 10, 1_000_000)
	dump := rec.Trigger("manual:budget")
	if dump == nil {
		t.Fatal("no dump")
	}
	if len(dump) > 1500+1024 {
		t.Fatalf("dump is %d bytes, way over the ring budget", len(dump))
	}
	conns, err := ReadTrafficCapture(dump)
	if err != nil {
		t.Fatal(err)
	}
	_, runs, err := conns[0].Epochs()
	if err != nil {
		t.Fatalf("wrapped ring does not open with its hello: %v", err)
	}
	if len(runs) == 0 || len(runs) >= 10 {
		t.Fatalf("ring retained %d of 10 epochs, want a wrapped but non-empty ring", len(runs))
	}
	fresh := flightTestReceiver(t)
	if _, err := ReplayTraffic(fresh, dump); err != nil {
		t.Fatalf("replay of wrapped ring: %v", err)
	}
	if got := fresh.AppliedSeq(5); got != 10 {
		t.Fatalf("wrapped replay applied seq = %d, want 10", got)
	}
}

// epochRuns parses a single-connection capture into its hello and
// per-epoch runs keyed by the sequence number each run commits.
func epochRuns(t *testing.T, capture []byte) (hello []byte, seqs []uint64, runs map[uint64][][]byte) {
	t.Helper()
	conns, err := ReadTrafficCapture(capture)
	if err != nil {
		t.Fatal(err)
	}
	hello, rs, err := conns[0].Epochs()
	if err != nil {
		t.Fatal(err)
	}
	runs = make(map[uint64][][]byte, len(rs))
	for _, run := range rs {
		_, end, err := DecodeControl(run[len(run)-1])
		if err != nil || end == nil {
			t.Fatalf("run does not end in an EpochEnd: %v", err)
		}
		seqs = append(seqs, end.Seq)
		runs[end.Seq] = run
	}
	return hello, seqs, runs
}

// TestRingEvictionEpochAligned wraps the ring mid-epoch: the budget
// holds the newest epochs plus all but the first data frame of the one
// before them. An EpochEnd carries no frame count, so a dump that kept
// that tail would replay the truncated epoch as if whole; eviction must
// instead drop it through its EpochEnd. The dump's replay must equal the
// full stream's replay restricted to the retained whole epochs.
func TestRingEvictionEpochAligned(t *testing.T) {
	// Load factors below 1 drain at every stage: several data frames per
	// epoch, so a frame-granular cut leaves data behind, not just a
	// watermark.
	lf := []float64{0.5, 0.5, 0.5}
	const epochs, cut = 10, 5 // the budget boundary falls inside epoch 5

	ship := func(budget int) (full, dump []byte) {
		rc := flightTestReceiver(t)
		var buf bytes.Buffer
		rec := NewTrafficRecorder(&buf)
		rec.ArmRing(rc.Counters())
		if budget > 0 {
			rec.budget = budget
		}
		rc.SetTrafficRecorder(rec)
		shipEpochsLF(t, rc, 5, epochs, 1_000_000, lf)
		return buf.Bytes(), rec.Trigger("manual:wrap")
	}
	// The stream is seeded, so a first pass sizes the budget for the second.
	sizing, _ := ship(0)
	_, seqs, runs := epochRuns(t, sizing)
	if len(seqs) != epochs || len(runs[cut]) < 4 {
		t.Fatalf("sizing run: %d epochs, epoch %d has %d frames; want %d epochs and >= 2 data frames",
			len(seqs), cut, len(runs[cut]), epochs)
	}
	budget := 0
	for seq, run := range runs {
		for i, f := range run {
			if seq > cut || (seq == cut && i > 0) {
				budget += len(f)
			}
		}
	}

	full, dump := ship(budget)
	hello, _, fullRuns := epochRuns(t, full)
	_, kept, dumpRuns := epochRuns(t, dump)
	if len(kept) == 0 || len(kept) >= epochs {
		t.Fatalf("ring retained epochs %v, want a wrapped but non-empty ring", kept)
	}
	want := &TrafficConn{Frames: [][]byte{hello}}
	for _, seq := range kept {
		if len(dumpRuns[seq]) != len(fullRuns[seq]) {
			t.Fatalf("dump holds %d of epoch %d's %d frames: eviction cut an epoch", len(dumpRuns[seq]), seq, len(fullRuns[seq]))
		}
		want.Frames = append(want.Frames, fullRuns[seq]...)
	}

	ref := flightTestReceiver(t)
	if err := ref.HandleConn(replayConn{bytes.NewReader(want.WireStream())}); err != nil {
		t.Fatal(err)
	}
	if got, wantRows := replayTwice(t, dump, epochs), renderRows(ref.Advance()); !bytes.Equal(got, wantRows) {
		t.Fatalf("wrapped dump replays to different rows than its whole epochs %v:\n%s\nvs\n%s", kept, got, wantRows)
	}
}

// TestRingDecisionTrigger wires the recorder to the decision log: an
// anomalous decision kind must produce a dump, a second within the
// rate-limit window must not, and a benign kind never triggers.
func TestRingDecisionTrigger(t *testing.T) {
	dumpsBefore := obs.Default().Counter(CtrFlightDumps).Value()
	rc, rec := ringTestReceiver(t)
	shipFlightEpochs(t, rc, 5, 4, 1_000_000)

	rec.OnDecision(obs.Decision{Kind: "load_factors"})
	if _, ok := rec.LastDump(); ok {
		t.Fatal("benign decision kind triggered a dump")
	}
	rec.OnDecision(obs.Decision{Kind: "degrade", Cause: "sustained_overload"})
	meta, ok := rec.LastDump()
	if !ok {
		t.Fatal("degrade decision did not trigger a dump")
	}
	if meta.Reason != "degrade:sustained_overload" {
		t.Fatalf("reason = %q", meta.Reason)
	}
	rec.OnDecision(obs.Decision{Kind: "fencing", Cause: "stale_term"})
	if m2, _ := rec.LastDump(); m2.Seq != meta.Seq {
		t.Fatal("rate limit did not suppress the second auto dump")
	}
	rec.lastAt = rec.lastAt.Add(-dumpMinGap)
	rec.OnDecision(obs.Decision{Kind: "fencing", Cause: "stale_term"})
	if m3, _ := rec.LastDump(); m3.Seq == meta.Seq {
		t.Fatal("auto dump missing once the rate-limit window has passed")
	}
	if got := obs.Default().Counter(CtrFlightDumps).Value() - dumpsBefore; got != 2 {
		t.Fatalf("flight_dumps_total delta = %d, want 2", got)
	}
}

// TestTrafficEpochSplit slices a recorded connection into per-epoch
// frame runs and replays a prefix: the receiver must apply exactly the
// replayed epochs. This is the sim's replay-source path.
func TestTrafficEpochSplit(t *testing.T) {
	const epochs = 10
	capture, _ := recordTrafficEpochs(t, epochs, 1_000_000)
	conns, err := ReadTrafficCapture(capture)
	if err != nil {
		t.Fatal(err)
	}
	c := conns[0]
	src, err := c.HelloSource()
	if err != nil {
		t.Fatal(err)
	}
	if src != 5 {
		t.Fatalf("hello source = %d, want 5", src)
	}
	hello, runs, err := c.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	if hello == nil || len(runs) != epochs {
		t.Fatalf("split: hello=%v runs=%d, want %d", hello != nil, len(runs), epochs)
	}
	// Replay the handshake plus the first four epochs only.
	part := &TrafficConn{Frames: [][]byte{hello}}
	for _, run := range runs[:4] {
		part.Frames = append(part.Frames, run...)
	}
	fresh := flightTestReceiver(t)
	if err := fresh.HandleConn(replayConn{bytes.NewReader(part.WireStream())}); err != nil {
		t.Fatal(err)
	}
	if got := fresh.AppliedSeq(5); got != 4 {
		t.Fatalf("partial replay applied seq = %d, want 4", got)
	}
}

// TestTrafficCaptureDecodeErrors exercises the one reader against
// garbage and truncations of both a stream capture and a ring dump.
func TestTrafficCaptureDecodeErrors(t *testing.T) {
	capture, _ := recordTrafficEpochs(t, 3, 1_000_000)
	dump := ringDumpEpochs(t, 3, 1_000_000)
	record := func(id uint64, n uint64, payload string) []byte {
		b := binary.AppendUvarint([]byte(TrafficMagic), id)
		return append(binary.AppendUvarint(b, n), payload...)
	}
	cases := map[string][]byte{
		"bad magic":       []byte("not a capture"),
		"empty capture":   []byte(TrafficMagic),
		"truncated id":    append([]byte(TrafficMagic), 0x80),
		"truncated len":   append([]byte(TrafficMagic), 0x00, 0x80),
		"truncated frame": record(0, 64, "short"),
		"oversize frame":  record(0, MaxTrafficFrame+1, ""),
		"malformed meta":  append(bytes.Clone(capture), record(metaConnID, 8, "not json")[len(TrafficMagic):]...),
		"meta only":       record(metaConnID, 2, "{}"),
	}
	for _, whole := range [][]byte{capture, dump} {
		for _, cut := range []int{1, 7, len(whole) / 2} {
			cases[fmt.Sprintf("%d-byte capture cut by %d", len(whole), cut)] = whole[:len(whole)-cut]
		}
	}
	for name, data := range cases {
		if _, err := ReadTrafficCapture(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := ReadDumpMeta(data); err == nil {
			t.Errorf("%s: meta read accepted", name)
		}
	}
	// The splitter only frames records; a frame too short for a wire
	// header is the epoch cutter's to refuse.
	conns, err := ReadTrafficCapture(record(0, 5, "runt!"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := conns[0].Epochs(); err == nil {
		t.Error("runt frame: epoch split accepted")
	}
}

// TestTrafficReplayRegression replays the committed full-run capture and
// requires a byte-identical result log — the CI guard that the wire
// format, columnar decode, and epoch application stay deterministic for
// recorded streams. A ring dump freshly rendered from the same epochs
// must replay to the same committed golden: one artifact pins both
// recording modes. Regenerate both files with
// TRAFFIC_REGEN=1 go test ./internal/transport -run TrafficReplayRegression.
func TestTrafficReplayRegression(t *testing.T) {
	capPath := filepath.Join("testdata", "traffic", "regression.capture")
	goldenPath := filepath.Join("testdata", "traffic", "regression.golden")

	if os.Getenv("TRAFFIC_REGEN") != "" {
		capture, _ := recordTrafficEpochs(t, 8, 25_000)
		fresh := flightTestReceiver(t)
		if _, err := ReplayTraffic(fresh, capture); err != nil {
			t.Fatal(err)
		}
		golden := renderRows(fresh.Advance())
		if err := os.MkdirAll(filepath.Dir(capPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(capPath, capture, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, golden, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes) and %s (%d bytes)", capPath, len(capture), goldenPath, len(golden))
	}

	capture, err := os.ReadFile(capPath)
	if err != nil {
		t.Fatalf("missing committed capture (regenerate with TRAFFIC_REGEN=1): %v", err)
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for name, input := range map[string][]byte{
		"committed capture": capture,
		"fresh ring dump":   ringDumpEpochs(t, 8, 25_000),
	} {
		rc := flightTestReceiver(t)
		if _, err := ReplayTraffic(rc, input); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := renderRows(rc.Advance()); !bytes.Equal(got, golden) {
			t.Fatalf("%s: replay result log diverged from golden:\n--- got ---\n%s--- want ---\n%s", name, got, golden)
		}
	}
}

// FuzzReadTrafficCapture feeds the one JARVISTR1 reader arbitrary bytes
// — a capture file is outside input, handed to jarvis-sim -replay. It
// must never panic, every frame it returns must lie within the input
// (frames alias the buffer), and the epoch splitter must hold up on
// whatever frames come out.
func FuzzReadTrafficCapture(f *testing.F) {
	capture, err := os.ReadFile(filepath.Join("testdata", "traffic", "regression.capture"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(capture)
	rec := NewTrafficRecorder(nil)
	rec.ArmRing(nil)
	if conns, err := ReadTrafficCapture(capture); err != nil {
		f.Fatal(err)
	} else {
		tap := rec.newTap()
		tap.pinHello(conns[0].Frames[0])
		for _, fr := range conns[0].Frames[1:] {
			tap.capture(fr)
		}
	}
	f.Add(rec.Trigger("fuzz:seed"))
	f.Add([]byte(TrafficMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		conns, err := ReadTrafficCapture(data)
		if err != nil {
			return
		}
		if len(conns) == 0 {
			t.Fatal("no error and no connections")
		}
		total := len(TrafficMagic)
		for _, c := range conns {
			for _, fr := range c.Frames {
				if total += len(fr); !bytes.Contains(data, fr) {
					t.Fatalf("conn %d frame [%d bytes] is not a slice of the %d-byte input", c.ID, len(fr), len(data))
				}
			}
			_, _, _ = c.Epochs()
		}
		if total > len(data) {
			t.Fatalf("returned %d frame bytes from a %d-byte input", total, len(data))
		}
	})
}
