package operator

import (
	"testing"

	"jarvis/internal/telemetry"
)

// growableJoin builds a buffered join over a mutable table so tests can
// model a static table that gains entries mid-window.
func growableJoin(table map[uint32]uint32, windowDur int64) *Join {
	j := NewJoin("tor", len(table), func(rec telemetry.Record) (telemetry.Record, bool) {
		p, ok := rec.Data.(*telemetry.PingProbe)
		if !ok {
			return rec, false
		}
		tor, ok := table[p.SrcIP]
		if !ok {
			return rec, false
		}
		out := rec
		out.Data = &telemetry.ToRProbe{Timestamp: p.Timestamp, SrcToR: tor, DstToR: 1, RTTMicros: p.RTTMicros}
		out.WireSize = telemetry.ToRProbeWireSize
		return out, true
	})
	return j.BufferMisses(windowDur)
}

func joinProbeRec(srcIP uint32, timeMicros int64, window int64) telemetry.Record {
	return telemetry.Record{
		Time:     timeMicros,
		Window:   window,
		WireSize: telemetry.PingProbeWireSize,
		Data:     &telemetry.PingProbe{Timestamp: timeMicros, SrcIP: srcIP, RTTMicros: 10},
	}
}

func TestJoinBufferMissesReprobeOnFlush(t *testing.T) {
	table := map[uint32]uint32{1: 100}
	j := growableJoin(table, 10)
	if !j.Stateful() {
		t.Fatal("buffered join must report stateful")
	}

	var out telemetry.Batch
	ProcessRows(j, telemetry.Batch{joinProbeRec(1, 3, 0), joinProbeRec(2, 4, 0)}, &out)
	if len(out) != 1 {
		t.Fatalf("hits = %d, want 1", len(out))
	}
	if got := j.OpenWindows(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("open windows = %v", got)
	}

	// The table learns the missing key before the window closes.
	table[2] = 200
	var flushed telemetry.Batch
	j.Flush(5, func(r telemetry.Record) { flushed = append(flushed, r) }) // window still open
	if len(flushed) != 0 {
		t.Fatalf("flush before window close emitted %d records", len(flushed))
	}
	j.Flush(10, func(r telemetry.Record) { flushed = append(flushed, r) })
	if len(flushed) != 1 {
		t.Fatalf("flush emitted %d records, want 1", len(flushed))
	}
	if tor := flushed[0].Data.(*telemetry.ToRProbe).SrcToR; tor != 200 {
		t.Fatalf("re-probed record resolved to ToR %d", tor)
	}
	if len(j.OpenWindows()) != 0 {
		t.Fatal("flushed window must clear")
	}
}

func TestJoinCheckpointableNonDestructive(t *testing.T) {
	j := growableJoin(map[uint32]uint32{}, 10)
	var out telemetry.Batch
	ProcessRows(j, telemetry.Batch{joinProbeRec(7, 3, 0), joinProbeRec(8, 4, 0)}, &out)

	var snapA, snapB telemetry.Batch
	j.SnapshotWindow(0, func(r telemetry.Record) { snapA = append(snapA, r) })
	j.SnapshotWindow(0, func(r telemetry.Record) { snapB = append(snapB, r) })
	if len(snapA) != 2 || len(snapB) != 2 {
		t.Fatalf("snapshots = %d, %d records; want 2, 2", len(snapA), len(snapB))
	}

	// Snapshots restore into a fresh replica via plain Process: still-missing
	// keys re-buffer instead of emitting.
	table := map[uint32]uint32{}
	replica := growableJoin(table, 10)
	for _, rec := range snapA {
		process(replica, rec, func(telemetry.Record) { t.Fatal("miss emitted during restore") })
	}
	if got := replica.OpenWindows(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("replica windows = %v", got)
	}
	// The replica's table learns both keys before window close, so the
	// restored records emit exactly once at flush.
	table[7], table[8] = 70, 80
	var flushed telemetry.Batch
	replica.Flush(10, func(r telemetry.Record) { flushed = append(flushed, r) })
	if len(flushed) != 2 {
		t.Fatalf("restored records flushed %d emissions, want 2", len(flushed))
	}
}

func TestJoinDrainHandsRawMissesDownstream(t *testing.T) {
	j := growableJoin(map[uint32]uint32{}, 10)
	var out telemetry.Batch
	ProcessRows(j, telemetry.Batch{joinProbeRec(5, 3, 0), joinProbeRec(6, 13, 1)}, &out)

	var drained telemetry.Batch
	j.Drain(func(r telemetry.Record) { drained = append(drained, r) })
	if len(drained) != 2 {
		t.Fatalf("drained %d records, want 2", len(drained))
	}
	if _, ok := drained[0].Data.(*telemetry.PingProbe); !ok {
		t.Fatalf("drained record is %T, want raw *PingProbe", drained[0].Data)
	}
	if len(j.OpenWindows()) != 0 {
		t.Fatal("drain must clear buffered state")
	}
}

func TestJoinWithoutBufferingUnchanged(t *testing.T) {
	j := NewJoin("plain", 1, func(rec telemetry.Record) (telemetry.Record, bool) { return rec, false })
	if j.Stateful() {
		t.Fatal("plain join must stay stateless")
	}
	process(j, joinProbeRec(1, 1, 0), func(telemetry.Record) { t.Fatal("miss emitted") })
	if n := len(j.OpenWindows()); n != 0 {
		t.Fatalf("plain join buffered %d windows", n)
	}
	j.Flush(100, func(telemetry.Record) { t.Fatal("plain join flushed") })
}
