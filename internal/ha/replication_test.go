package ha

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jarvis/internal/checkpoint"
	"jarvis/internal/core"
	"jarvis/internal/plan"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/transport"
	"jarvis/internal/wire"
)

// The replication path end to end, without sockets: a Publisher's
// handle and a Standby's serveConn on the two ends of a net.Pipe.

// replTerm is the fencing term of every primary in these tests.
const replTerm = 3

// linearSnapshot builds the id-th snapshot of a linear stream the way a
// primary that never re-bases would capture it: id 1 is a base holding
// one group, every later one a keyed delta that adds group id and
// supersedes group 1.
func linearSnapshot(id uint64) *checkpoint.Snapshot {
	row := func(key uint64, v float64) telemetry.Record {
		return telemetry.NewAggRecord(telemetry.NewAggRow(telemetry.NumKey(key), 0, v), 10_000_000)
	}
	snap := &checkpoint.Snapshot{
		Checkpoint: stream.Checkpoint{
			Watermark: int64(id) * 1_000_000,
			Stages:    map[int]telemetry.Batch{2: {row(id, float64(id))}},
		},
		Seq:     id,
		Term:    replTerm,
		Sources: map[uint32]checkpoint.SourceState{1: {Watermark: int64(id) * 1_000_000, AppliedSeq: id}},
	}
	if id > 1 {
		snap.Delta, snap.BaseID = true, id-1
		snap.Meta = map[int]stream.StageDelta{2: {}}
		snap.Stages[2] = append(snap.Stages[2], row(1, float64(100*id)))
	}
	return snap
}

// replPair is a primary store + publisher replicating to one standby.
type replPair struct {
	store *checkpoint.Store
	pub   *Publisher
}

func startReplPair(t *testing.T, st *Standby) *replPair {
	t.Helper()
	dir := t.TempDir()
	store, err := checkpoint.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.SetRetention(0)
	pub := NewPublisher(store, filepath.Join(dir, "results.log"), replTerm, nil)
	pc, sc := net.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go pub.handle(pc)
	go func() { defer close(done); st.serveConn(ctx, sc) }()
	t.Cleanup(func() {
		cancel()
		_ = pub.Close()
		<-done
		_ = store.Close()
	})
	for deadline := time.Now().Add(5 * time.Second); pub.Standbys() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("standby never attached")
		}
	}
	return &replPair{store: store, pub: pub}
}

// replicate saves one snapshot on the primary the way SPRecovery does —
// save, publish, wait — and fails unless the standby acks it.
func (p *replPair) replicate(t *testing.T, snap *checkpoint.Snapshot) uint64 {
	t.Helper()
	id, err := p.store.Save(snap)
	if err != nil {
		t.Fatal(err)
	}
	p.pub.PublishSnapshot(id, snap)
	if !p.pub.WaitDurable(id, 5*time.Second) {
		t.Fatalf("standby never acked snapshot %d", id)
	}
	return id
}

// sortedRows renders a stage's rows as sorted wire encodings: captures
// walk maps, so row order is not part of a state's identity.
func sortedRows(t *testing.T, rows telemetry.Batch) []byte {
	t.Helper()
	enc := make([][]byte, len(rows))
	for i, rec := range rows {
		var err error
		if enc[i], err = wire.EncodeRecord(nil, rec); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(enc, func(i, j int) bool { return bytes.Compare(enc[i], enc[j]) < 0 })
	return bytes.Join(enc, nil)
}

func sameStages(t *testing.T, what string, got, want map[int]telemetry.Batch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d stages, want %d", what, len(got), len(want))
	}
	for st, rows := range want {
		if !bytes.Equal(sortedRows(t, got[st]), sortedRows(t, rows)) {
			t.Fatalf("%s: stage %d holds %d rows that differ from the expected %d", what, st, len(got[st]), len(rows))
		}
	}
}

// waitShadow waits out the reload that follows a snapshot's ack.
func waitShadow(t *testing.T, st *Standby) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		st.mu.Lock()
		stale := st.shadowStale
		st.mu.Unlock()
		if !stale {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the shadow engine never caught up with the folded state")
		}
	}
}

// shadowOf is what an engine restored to snap captures.
func shadowOf(t *testing.T, snap *checkpoint.Snapshot) map[int]telemetry.Batch {
	t.Helper()
	proc, err := core.NewProcessor(plan.S2SProbe())
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.LoadSnapshot(snap.Stages, map[uint32]int64{1: snap.Sources[1].Watermark}); err != nil {
		t.Fatal(err)
	}
	return proc.Engine().Capture(true).Stages
}

func readSnapshotFile(t *testing.T, store *checkpoint.Store, id uint64) *checkpoint.Snapshot {
	t.Helper()
	f, err := os.Open(filepath.Join(store.Dir(), checkpoint.SnapshotFileName(id)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := checkpoint.DecodeSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestStandbyStoreIsAStore: the standby writes the stage frames it
// received, under a header of its own — and what that leaves on disk is
// a store like any other: it folds to the primary's state, warms a
// restarted standby, and survives a torn file the way every store does.
func TestStandbyStoreIsAStore(t *testing.T) {
	const n = checkpoint.DefaultMaxChain + 6 // a base + 21 deltas: one local re-base on the way
	st := newChainStandby(t)
	st.Store().SetRetention(0)
	p := startReplPair(t, st)
	for id := uint64(1); id <= n; id++ {
		if got := p.replicate(t, linearSnapshot(id)); got != id {
			t.Fatalf("primary saved snapshot %d as %d", id, got)
		}
	}
	if got := manifestKinds(t, st.Store()); got != "f"+strings.Repeat(" d", checkpoint.DefaultMaxChain)+" f"+strings.Repeat(" d", n-checkpoint.DefaultMaxChain-2) {
		t.Fatalf("standby manifest %q: want one local re-base after %d deltas", got, checkpoint.DefaultMaxChain)
	}

	want, ok, err := p.store.Latest()
	if err != nil || !ok {
		t.Fatalf("primary latest: ok=%v err=%v", ok, err)
	}
	reopened, err := checkpoint.OpenStore(st.Store().Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got, ok, err := reopened.Latest()
	if err != nil || !ok {
		t.Fatalf("standby latest: ok=%v err=%v", ok, err)
	}
	sameStages(t, "standby store", got.Stages, want.Stages)
	if got.Seq != want.Seq || got.Term != want.Term || got.Watermark != want.Watermark || len(got.Sources) != len(want.Sources) || got.Sources[1] != want.Sources[1] {
		t.Fatalf("standby store folds to seq %d term %d wm %d sources %v, primary to seq %d term %d wm %d sources %v",
			got.Seq, got.Term, got.Watermark, got.Sources, want.Seq, want.Term, want.Watermark, want.Sources)
	}
	if len(got.Stages[2]) != n {
		t.Fatalf("folded state holds %d groups, want %d", len(got.Stages[2]), n)
	}

	// File for file (ids run in lockstep here): the rows the primary's
	// decode to, a delta, and the standby's own term in the header.
	for _, id := range []uint64{1, 2, checkpoint.DefaultMaxChain + 1, n} {
		mine, theirs := readSnapshotFile(t, st.Store(), id), readSnapshotFile(t, p.store, id)
		sameStages(t, "standby file", mine.Stages, theirs.Stages)
		if mine.Delta != theirs.Delta || mine.Seq != theirs.Seq || mine.Term != replTerm || len(mine.Meta) != len(theirs.Meta) {
			t.Fatalf("standby file %d: delta %v seq %d term %d meta %v, primary's delta %v seq %d meta %v",
				id, mine.Delta, mine.Seq, mine.Term, mine.Meta, theirs.Delta, theirs.Seq, theirs.Meta)
		}
	}

	// A standby restarted on the directory warms to the same shadow.
	proc, err := core.NewProcessor(plan.S2SProbe())
	if err != nil {
		t.Fatal(err)
	}
	again, err := NewStandby(proc, st.Store().Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer again.ResultLog().Close()
	defer again.Store().Close()
	waitShadow(t, st)
	sameStages(t, "replicated shadow", st.Engine().Capture(true).Stages, shadowOf(t, want))
	sameStages(t, "restarted shadow", again.Engine().Capture(true).Stages, st.Engine().Capture(true).Stages)
	if again.PrimaryTerm() != replTerm {
		t.Fatalf("restarted standby is at term %d, want %d", again.PrimaryTerm(), replTerm)
	}

	// A torn newest delta — one the standby wrote verbatim — falls back to
	// the entry before it, in this store as in the primary's.
	for _, store := range []*checkpoint.Store{reopened, p.store} {
		path := filepath.Join(store.Dir(), checkpoint.SnapshotFileName(n))
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()/2); err != nil {
			t.Fatal(err)
		}
		snap, id, ok, err := store.LatestWithID()
		if err != nil || !ok || id != n-1 || snap.Seq != n-1 || len(snap.Stages[2]) != n-1 {
			t.Fatalf("%s: after tearing snapshot %d: id %d ok=%v err=%v", store.Dir(), n, id, ok, err)
		}
	}
}

// TestPromoteBetweenAckAndReload: the standby acks a snapshot once it is
// folded and stored and reloads the shadow after. A promotion that lands
// in between must still adopt an engine holding the acked cut.
func TestPromoteBetweenAckAndReload(t *testing.T) {
	st := newChainStandby(t)
	reloads, release := make(chan struct{}, 1), make(chan struct{})
	var park atomic.Bool
	st.beforeReload = func() {
		if park.Load() {
			reloads <- struct{}{}
			<-release
		}
	}
	p := startReplPair(t, st)
	unpark := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unpark) // before the pair's cleanup waits for serveConn
	p.replicate(t, linearSnapshot(1))
	// Snapshot 1's reload runs unhindered; the next one parks.
	waitShadow(t, st)
	park.Store(true)
	// replicate returns on the ack: with the reload parked, that alone
	// shows the ack does not wait for it.
	p.replicate(t, linearSnapshot(2))
	<-reloads
	sameStages(t, "shadow before promotion", st.Engine().Capture(true).Stages, shadowOf(t, readSnapshotFile(t, p.store, 1)))

	rc := transport.NewReceiver(st.Engine())
	rm, err := st.Promote(rc, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	acked, ok, err := p.store.Latest()
	if err != nil || !ok {
		t.Fatalf("primary latest: ok=%v err=%v", ok, err)
	}
	sameStages(t, "adopted engine", st.Engine().Capture(true).Stages, shadowOf(t, acked))
	if rc.AppliedSeq(1) != 2 {
		t.Fatalf("promoted receiver resumes after epoch %d, want 2", rc.AppliedSeq(1))
	}

	// The parked reload wakes into a promoted standby and must leave the
	// serving engine alone.
	unpark()
	for deadline := time.Now().Add(5 * time.Second); st.Connected(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("replication connection outlived the promotion")
		}
	}
	sameStages(t, "serving engine", st.Engine().Capture(true).Stages, shadowOf(t, acked))
}

// TestWaitDurableWakesOnAckAndDetach: WaitDurable blocks on a wake-up,
// not a poll. An ack releases it at once, so does the waited-on standby
// leaving — by detach or by being dropped for a full queue — and the
// deadline still holds when nothing happens.
func TestWaitDurableWakesOnAckAndDetach(t *testing.T) {
	store, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	pub := NewPublisher(store, filepath.Join(store.Dir(), "results.log"), 1, nil)
	// attach registers a standby without starting its write loop: frames
	// queue on the subscriber, and acks are fed to noteAck by hand.
	attach := func() *subscriber {
		t.Helper()
		conn, peer := net.Pipe()
		t.Cleanup(func() { _ = peer.Close() })
		sub, err := pub.attach(conn, &wire.ReplHello{Version: wire.CurrentWireVersion})
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	// wait starts WaitDurable(id) and returns once it is parked on the
	// wake-up; the channel yields its result and the time it returned.
	type outcome struct {
		ok bool
		at time.Time
	}
	wait := func(id uint64, timeout time.Duration) <-chan outcome {
		t.Helper()
		out := make(chan outcome, 1)
		go func() {
			ok := pub.WaitDurable(id, timeout)
			out <- outcome{ok, time.Now()}
		}()
		for deadline := time.Now().Add(5 * time.Second); ; {
			pub.mu.Lock()
			parked := pub.wake != nil
			pub.mu.Unlock()
			if parked {
				return out
			}
			if time.Now().After(deadline) {
				t.Fatal("WaitDurable never parked")
			}
			runtime.Gosched()
		}
	}

	// An ack that arrives just after the waiter looked — the worst phase
	// for a 1 ms poll — releases it well inside a millisecond.
	sub := attach()
	const rounds = 21
	lat := make([]time.Duration, 0, rounds)
	for id := uint64(1); id <= rounds; id++ {
		out := wait(id, 5*time.Second)
		acked := time.Now()
		pub.noteAck(sub, &wire.ReplAck{ID: id, Seq: id})
		got := <-out
		if !got.ok {
			t.Fatalf("snapshot %d: acked, but WaitDurable reported a timeout", id)
		}
		lat = append(lat, got.at.Sub(acked))
	}
	slices.Sort(lat)
	if med := lat[rounds/2]; med >= time.Millisecond {
		t.Fatalf("ack → release took a median %v (min %v, max %v): a sleep quantum is still in the way", med, lat[0], lat[rounds-1])
	}
	if pub.WaitDurable(rounds, time.Second) != true {
		t.Fatal("an already acked snapshot did not report durable")
	}

	// Nothing happens: the deadline still ends the wait, with false.
	start := time.Now()
	if pub.WaitDurable(rounds+1, 30*time.Millisecond) {
		t.Fatal("an unacked snapshot reported durable")
	}
	if took := time.Since(start); took < 30*time.Millisecond || took > 2*time.Second {
		t.Fatalf("a 30 ms deadline ended the wait after %v", took)
	}

	// The standby detaches mid-wait: released at once — not at the
	// deadline — and counted as an ack without a standby.
	released := func(how string, out <-chan outcome, since time.Time, before int64) {
		t.Helper()
		select {
		case got := <-out:
			if !got.ok {
				t.Fatalf("%s: the waiter was told the wait timed out", how)
			}
			if took := got.at.Sub(since); took > 500*time.Millisecond {
				t.Fatalf("%s released the waiter after %v", how, took)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not release the waiter", how)
		}
		if got := pub.Counters().Get(CtrAcksWithoutStandby); got != before+1 {
			t.Fatalf("%s: %s went %d → %d, want one more", how, CtrAcksWithoutStandby, before, got)
		}
	}
	before := pub.Counters().Get(CtrAcksWithoutStandby)
	out := wait(rounds+2, checkpoint.DefaultReplAckTimeout)
	since := time.Now()
	pub.detach(sub)
	released("detach", out, since, before)

	// A standby that falls a full queue behind is dropped by the
	// broadcast itself; that, too, releases the waiter.
	sub = attach()
	out = wait(rounds+3, checkpoint.DefaultReplAckTimeout)
	since = time.Now()
	rows := telemetry.Batch{telemetry.NewAggRecord(telemetry.NewAggRow(telemetry.NumKey(1), 0, 1), 1)}
	for i := 0; i <= cap(sub.ch); i++ {
		pub.PublishRows(rows)
	}
	released("queue overflow", out, since, before+1)
	if pub.Standbys() != 0 {
		t.Fatalf("%d standbys attached after the overflow drop", pub.Standbys())
	}
}
