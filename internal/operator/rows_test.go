package operator

import (
	"reflect"
	"testing"

	"jarvis/internal/telemetry"
)

// probeBatch builds a deterministic test batch of raw probes.
func probeBatch(n int) telemetry.Batch {
	out := make(telemetry.Batch, 0, n)
	for i := 0; i < n; i++ {
		p := &telemetry.PingProbe{
			Timestamp: int64(i) * 1000,
			SrcIP:     0x0A000001,
			DstIP:     0x0B000000 + uint32(i%7),
			RTTMicros: uint32(100 + i%50),
			ErrCode:   uint32(i % 3),
		}
		out = append(out, telemetry.NewProbeRecord(p))
	}
	return out
}

// process feeds one record through an operator as a single-row section
// and hands whatever it emits to emit — the record-at-a-time reference.
func process(op Operator, rec telemetry.Record, emit Emit) {
	var out telemetry.Batch
	ProcessRows(op, telemetry.Batch{rec}, &out)
	for _, r := range out {
		emit(r)
	}
}

// recordPath runs a batch through the operator one record at a time —
// the reference a whole Rows section must match.
func recordPath(op Operator, in telemetry.Batch) telemetry.Batch {
	var out telemetry.Batch
	for i := range in {
		process(op, in[i], collect(&out))
	}
	return out
}

// assertSectionMatchesRecord checks that one Rows section carrying the
// whole batch yields exactly the records, in order, that feeding the
// batch one record at a time does.
func assertSectionMatchesRecord(t *testing.T, mk func() Operator, in telemetry.Batch) {
	t.Helper()
	ref := recordPath(mk(), in)
	var got telemetry.Batch
	ProcessRows(mk(), in, &got)
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("section path diverges: %d vs %d records", len(ref), len(got))
	}
}

func TestWindowRowsSection(t *testing.T) {
	in := probeBatch(500)
	assertSectionMatchesRecord(t, func() Operator {
		return NewWindow("w", 10_000)
	}, in)
	// Input records must stay untouched (operators never write through
	// a section's shared row array).
	for i := range in {
		if in[i].Window != 0 {
			t.Fatal("ProcessColumnar mutated its input rows")
		}
	}
}

func TestFilterRowsSection(t *testing.T) {
	assertSectionMatchesRecord(t, func() Operator {
		return NewFilter("f", func(r telemetry.Record) bool {
			return r.Data.(*telemetry.PingProbe).ErrCode == 0
		})
	}, probeBatch(500))
}

func TestMapRowsSection(t *testing.T) {
	// Flat-map: emits 0, 1 or 2 records per input.
	assertSectionMatchesRecord(t, func() Operator {
		return NewMap("m", func(r telemetry.Record, emit Emit) {
			p := r.Data.(*telemetry.PingProbe)
			switch p.ErrCode {
			case 0:
				emit(r)
				emit(r)
			case 1:
				emit(r)
			}
		})
	}, probeBatch(500))
}

func TestJoinRowsSection(t *testing.T) {
	table := telemetry.NewToRTable([]uint32{0x0A000001}, 4)
	assertSectionMatchesRecord(t, func() Operator {
		return NewJoin("j", table.Len(), SrcToRLookup(table))
	}, probeBatch(500))
}

func groupAggState(g *GroupAgg) telemetry.Batch {
	var rows telemetry.Batch
	g.Drain(func(r telemetry.Record) { rows = append(rows, r) })
	return rows
}

func TestGroupAggRowsSection(t *testing.T) {
	in := probeBatch(1000)
	// Window-assign first so grouping state lands in real windows.
	var windowed telemetry.Batch
	ProcessRows(NewWindow("w", 10_000), in, &windowed)

	ref := NewGroupAgg("g", 10_000, ProbePairKey, ProbeRTT)
	for i := range windowed {
		process(ref, windowed[i], func(telemetry.Record) {})
	}
	vec := NewGroupAgg("g", 10_000, ProbePairKey, ProbeRTT)
	var none telemetry.Batch
	ProcessRows(vec, windowed, &none)
	if len(none) != 0 {
		t.Fatal("G+R must not emit from ProcessColumnar")
	}
	if !reflect.DeepEqual(groupAggState(ref), groupAggState(vec)) {
		t.Fatal("section G+R state diverges from record path")
	}
}

func TestGroupQuantileRowsSection(t *testing.T) {
	in := probeBatch(1000)
	var windowed telemetry.Batch
	ProcessRows(NewWindow("w", 10_000), in, &windowed)

	mk := func() *GroupQuantile {
		return NewGroupQuantile("q", 10_000, ProbePairKey, ProbeRTT, 0, 1000, 50)
	}
	ref := mk()
	for i := range windowed {
		process(ref, windowed[i], func(telemetry.Record) {})
	}
	vec := mk()
	var none telemetry.Batch
	ProcessRows(vec, windowed, &none)
	if len(none) != 0 {
		t.Fatal("quantile must not emit from ProcessColumnar")
	}
	var refRows, vecRows telemetry.Batch
	ref.Drain(func(r telemetry.Record) { refRows = append(refRows, r) })
	vec.Drain(func(r telemetry.Record) { vecRows = append(vecRows, r) })
	if !reflect.DeepEqual(refRows, vecRows) {
		t.Fatal("section quantile state diverges from record path")
	}
}

// TestGroupAggBatchMergesPartials covers the second input shape: AggRow
// partials from a source replica merging through a Rows section.
func TestGroupAggRowsSectionMergesPartials(t *testing.T) {
	up := NewGroupAgg("up", 10_000, ProbePairKey, ProbeRTT)
	var windowed, none telemetry.Batch
	ProcessRows(NewWindow("w", 10_000), probeBatch(400), &windowed)
	ProcessRows(up, windowed, &none)
	var partials telemetry.Batch
	up.Drain(func(r telemetry.Record) { partials = append(partials, r) })
	if len(partials) == 0 {
		t.Fatal("no partials")
	}

	ref := NewGroupAgg("d", 10_000, ProbePairKey, ProbeRTT)
	for i := range partials {
		process(ref, partials[i], func(telemetry.Record) {})
	}
	vec := NewGroupAgg("d", 10_000, ProbePairKey, ProbeRTT)
	ProcessRows(vec, partials, &none)
	if !reflect.DeepEqual(groupAggState(ref), groupAggState(vec)) {
		t.Fatal("partial merge diverges between paths")
	}
}
