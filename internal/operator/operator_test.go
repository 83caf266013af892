package operator

import (
	"testing"

	"jarvis/internal/telemetry"
)

func collect(out *telemetry.Batch) Emit {
	return func(r telemetry.Record) { *out = append(*out, r) }
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindWindow:   "W",
		KindFilter:   "F",
		KindMap:      "M",
		KindJoin:     "J",
		KindGroupAgg: "G+R",
		Kind(99):     "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestWindowAssignment(t *testing.T) {
	w := NewWindow("w", 10_000_000) // 10 s
	var out telemetry.Batch
	process(w, telemetry.Record{Time: 25_000_000}, collect(&out))
	process(w, telemetry.Record{Time: 30_000_000}, collect(&out))
	if out[0].Window != 2 || out[1].Window != 3 {
		t.Fatalf("windows = %d, %d", out[0].Window, out[1].Window)
	}
	if w.WindowEnd(2) != 30_000_000 {
		t.Fatalf("WindowEnd = %d", w.WindowEnd(2))
	}
	if !w.Stateful() == false {
		t.Fatal("window is stateless")
	}
	if w.WindowOf(-1) != -1 {
		t.Fatalf("negative time window = %d", w.WindowOf(-1))
	}
	if w.Duration() != 10_000_000 {
		t.Fatal("Duration mismatch")
	}
}

func TestWindowPanicsOnBadDuration(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWindow("w", 0)
}

func TestFilter(t *testing.T) {
	f := NewFilter("f", func(r telemetry.Record) bool {
		return r.Data.(*telemetry.PingProbe).OK()
	})
	var out telemetry.Batch
	process(f, telemetry.NewProbeRecord(&telemetry.PingProbe{ErrCode: 0}), collect(&out))
	process(f, telemetry.NewProbeRecord(&telemetry.PingProbe{ErrCode: 2}), collect(&out))
	if len(out) != 1 {
		t.Fatalf("filter kept %d records, want 1", len(out))
	}
	if f.Kind() != KindFilter || f.Stateful() {
		t.Fatal("filter metadata wrong")
	}
}

func TestMapFlat(t *testing.T) {
	m := NewMap("parse", func(rec telemetry.Record, emit Emit) {
		emit(rec)
		emit(rec)
	})
	var out telemetry.Batch
	process(m, telemetry.Record{Time: 1}, collect(&out))
	if len(out) != 2 {
		t.Fatalf("flat map emitted %d", len(out))
	}
}

func TestMap1(t *testing.T) {
	m := NewMap1("x2", func(rec telemetry.Record) telemetry.Record {
		rec.Time *= 2
		return rec
	})
	var out telemetry.Batch
	process(m, telemetry.Record{Time: 21}, collect(&out))
	if len(out) != 1 || out[0].Time != 42 {
		t.Fatalf("out = %+v", out)
	}
	m.Flush(0, collect(&out)) // no-op
	m.Reset()
	if len(out) != 1 {
		t.Fatal("flush should not emit for map")
	}
}

func TestJoinToR(t *testing.T) {
	ips := []uint32{10, 20, 30}
	table := telemetry.NewToRTable(ips, 2)
	j1 := NewJoin("j1", table.Len(), SrcToRLookup(table))
	j2 := NewJoin("j2", table.Len(), DstToRLookup(table))

	probe := telemetry.NewProbeRecord(&telemetry.PingProbe{
		Timestamp: 5, SrcIP: 10, DstIP: 20, RTTMicros: 900,
	})
	var mid telemetry.Batch
	process(j1, probe, collect(&mid))
	if len(mid) != 1 {
		t.Fatalf("j1 emitted %d", len(mid))
	}
	var out telemetry.Batch
	process(j2, mid[0], collect(&out))
	if len(out) != 1 {
		t.Fatalf("j2 emitted %d", len(out))
	}
	tor := out[0].Data.(*telemetry.ToRProbe)
	if tor.RTTMicros != 900 || tor.Timestamp != 5 {
		t.Fatalf("tor = %+v", tor)
	}
	if out[0].WireSize != telemetry.ToRProbeWireSize {
		t.Fatalf("projection should shrink wire size, got %d", out[0].WireSize)
	}

	// Misses are dropped (inner join).
	var none telemetry.Batch
	process(j1, telemetry.NewProbeRecord(&telemetry.PingProbe{SrcIP: 99}), collect(&none))
	if len(none) != 0 {
		t.Fatal("unknown src should be dropped")
	}
	process(j2, probe, collect(&none)) // wrong payload type for j2
	if len(none) != 0 {
		t.Fatal("wrong payload type should be dropped")
	}
	if j1.TableSize() != 3 {
		t.Fatalf("table size = %d", j1.TableSize())
	}
	j1.SetTableSize(30)
	if j1.TableSize() != 30 {
		t.Fatal("SetTableSize failed")
	}
	if j1.Kind() != KindJoin || j1.Stateful() {
		t.Fatal("join metadata wrong")
	}
}

func TestItoa(t *testing.T) {
	cases := map[int]string{0: "0", 5: "5", 42: "42", -7: "-7", 1234567: "1234567"}
	for v, want := range cases {
		if got := itoa(v); got != want {
			t.Errorf("itoa(%d) = %q, want %q", v, got, want)
		}
	}
}
