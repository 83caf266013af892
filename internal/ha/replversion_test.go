package ha

import (
	"encoding/binary"
	"io"
	"net"
	"path/filepath"
	"testing"
	"time"

	"jarvis/internal/checkpoint"
	"jarvis/internal/obs"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
)

// TestReplicationHelloVersion: the replication stream carries snapshot
// bytes as Snapshot.Encode wrote them, and a float column of another wire
// version decodes without error into wrong sums — so the publisher
// attaches only a standby whose hello names its own wire version. An
// old-shaped hello (no version field: a pre-v4 build) and one naming v3
// are closed with nothing queued, no attach counted and the refusal in
// the decision log; the current hello gets the resync snapshot.
func TestReplicationHelloVersion(t *testing.T) {
	dir := t.TempDir()
	store, err := checkpoint.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	agg := telemetry.NewAggRow(telemetry.NumKey(42), 0, 17.5)
	snap := &checkpoint.Snapshot{Seq: 3, Checkpoint: stream.Checkpoint{Watermark: 9_000_000, Stages: map[int]telemetry.Batch{2: {telemetry.NewAggRecord(agg, 10_000_000)}}}}
	if _, err := store.Save(snap); err != nil {
		t.Fatal(err)
	}
	pub := NewPublisher(store, filepath.Join(dir, "results.log"), 1, nil)

	current, err := replHelloFrame(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := encodeFrame(wire.Frame{StreamID: wire.ControlStreamID, Records: telemetry.Batch{
		{WireSize: 33, Data: &wire.ReplHello{Version: wire.WireV3}}}})
	if err != nil {
		t.Fatal(err)
	}
	// What a build without the field sent: the same frame, one byte (the
	// version uvarint) shorter.
	oldShape := append([]byte(nil), current[:len(current)-1]...)
	binary.BigEndian.PutUint32(oldShape, uint32(len(oldShape)-4))

	attach := func(hello []byte) (net.Conn, chan struct{}) {
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() { pub.handle(server); close(done) }()
		_ = client.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := client.Write(hello); err != nil {
			t.Fatal(err)
		}
		return client, done
	}
	for name, hello := range map[string][]byte{"old-shaped hello": oldShape, "v3 hello": v3} {
		before := obs.Decisions().Total()
		client, done := attach(hello)
		if n, err := io.Copy(io.Discard, client); err != nil || n != 0 {
			t.Fatalf("%s: primary sent %d bytes (err %v), want the connection closed with nothing", name, n, err)
		}
		<-done
		pub.mu.Lock()
		subs := len(pub.subs)
		pub.mu.Unlock()
		if subs != 0 || pub.Counters().Get(CtrStandbyAttaches) != 0 {
			t.Fatalf("%s: %d subscribers, %d attaches counted", name, subs, pub.Counters().Get(CtrStandbyAttaches))
		}
		if d := obs.Decisions().Recent(1); obs.Decisions().Total() != before+1 || d[0].Kind != "replication_refused" {
			t.Fatalf("%s: refusal not in the decision log: %+v", name, d)
		}
	}

	client, done := attach(current)
	f, err := wire.NewFrameReader(client).ReadFrame()
	if err != nil {
		t.Fatalf("current hello: %v", err)
	}
	rep, ok := f.Records[0].Data.(*wire.ReplSnapshot)
	if !ok || rep.Seq != 3 {
		t.Fatalf("current hello answered with %+v", f.Records[0].Data)
	}
	if got := pub.Counters().Get(CtrStandbyAttaches); got != 1 {
		t.Fatalf("%d attaches counted for the current hello", got)
	}
	_ = client.Close()
	<-done
}
