package operator

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"jarvis/internal/telemetry"
)

func quantileOp() *GroupQuantile {
	return NewGroupQuantile("q", winDur, ProbePairKey, ProbeRTT, 0, 10000, 100)
}

func TestGroupQuantileBasic(t *testing.T) {
	g := quantileOp()
	var out telemetry.Batch
	for i := 0; i < 1000; i++ {
		process(g, probeRec(1_000_000, 1, 2, uint32(i*10)), collect(&out))
	}
	if len(out) != 0 {
		t.Fatal("no emissions before flush")
	}
	g.Flush(winDur, collect(&out))
	if len(out) != 1 {
		t.Fatalf("rows = %d", len(out))
	}
	row := out[0].Data.(*telemetry.QuantileRow)
	if row.Total != 1000 {
		t.Fatalf("total = %d", row.Total)
	}
	// Values 0..9990 uniform: the median is ≈5000 within a bucket (100).
	if med := row.Quantile(0.5); math.Abs(med-5000) > 150 {
		t.Fatalf("p50 = %v", med)
	}
	if p99 := row.Quantile(0.99); math.Abs(p99-9900) > 200 {
		t.Fatalf("p99 = %v", p99)
	}
	if g.Kind() != KindGroupAgg || !g.Stateful() {
		t.Fatal("metadata")
	}
}

func TestGroupQuantileMergeLossless(t *testing.T) {
	// The R-1 property: splitting the stream across two replicas and
	// merging partial sketches gives the same quantiles as one replica.
	f := func(seed uint64, splitPct uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		p := float64(splitPct%101) / 100
		ref := quantileOp()
		a, b := quantileOp(), quantileOp()
		none := func(telemetry.Record) {}
		for i := 0; i < 500; i++ {
			rec := probeRec(1_000_000, 1, 2, uint32(rng.IntN(12000)))
			process(ref, rec, none)
			if rng.Float64() < p {
				process(a, rec, none)
			} else {
				process(b, rec, none)
			}
		}
		// a drains its partials into b (like source → SP).
		a.Drain(func(r telemetry.Record) { process(b, r, none) })
		var want, got telemetry.Batch
		ref.Flush(winDur, collect(&want))
		b.Flush(winDur, collect(&got))
		if len(want) != len(got) {
			return false
		}
		for i := range want {
			wr := want[i].Data.(*telemetry.QuantileRow)
			gr := got[i].Data.(*telemetry.QuantileRow)
			if wr.Total != gr.Total {
				return false
			}
			for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
				if wr.Quantile(q) != gr.Quantile(q) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupQuantileIncompatiblePartialDropped(t *testing.T) {
	g := quantileOp()
	none := func(telemetry.Record) {}
	process(g, probeRec(1_000_000, 1, 2, 100), none)
	// A partial with a different shape must not corrupt state.
	bad := telemetry.NewQuantileRow(telemetry.NumKey((1<<32)|2), 0, 0, 99, 3)
	bad.Observe(5)
	process(g, telemetry.Record{Window: 0, Data: bad}, none)
	var out telemetry.Batch
	g.Flush(winDur, collect(&out))
	if len(out) != 1 {
		t.Fatalf("rows = %d", len(out))
	}
	if out[0].Data.(*telemetry.QuantileRow).Total != 1 {
		t.Fatal("incompatible partial should be dropped")
	}
}

func TestGroupQuantileDrainClearsAndReset(t *testing.T) {
	g := quantileOp()
	none := func(telemetry.Record) {}
	process(g, probeRec(1_000_000, 1, 2, 100), none)
	var out telemetry.Batch
	g.Drain(collect(&out))
	if len(out) != 1 {
		t.Fatal("drain should emit")
	}
	out = nil
	g.Flush(winDur, collect(&out))
	if len(out) != 0 {
		t.Fatal("drain must clear state")
	}
	process(g, probeRec(1_000_000, 1, 2, 100), none)
	g.Reset()
	g.Flush(winDur, collect(&out))
	if len(out) != 0 {
		t.Fatal("reset must clear state")
	}
}

func TestGroupQuantilePanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGroupQuantile("q", 0, ProbePairKey, ProbeRTT, 0, 1, 1)
}

func TestQuantileRowEdges(t *testing.T) {
	q := telemetry.NewQuantileRow(telemetry.NumKey(1), 0, 0, 100, 10)
	if q.Quantile(0.5) != 0 {
		t.Fatal("empty sketch quantile should be Lo")
	}
	q.Observe(-5)  // underflow
	q.Observe(150) // overflow
	if got := q.Quantile(0); got != 0 {
		t.Fatalf("underflow quantile = %v", got)
	}
	if got := q.Quantile(1); got != 100 {
		t.Fatalf("overflow quantile = %v", got)
	}
	// Clamping and degenerate construction.
	if q.Quantile(-1) != 0 || q.Quantile(2) != 100 {
		t.Fatal("p clamping")
	}
	d := telemetry.NewQuantileRow(telemetry.NumKey(1), 0, 5, 5, 0)
	d.Observe(5)
	if d.Total != 1 || d.Buckets() != 1 {
		t.Fatalf("degenerate sketch: %+v", d)
	}
	// Clone independence.
	c := q.Clone()
	c.Observe(50)
	if c.Total == q.Total {
		t.Fatal("clone aliases counts")
	}
	if q.WireSize() <= 0 {
		t.Fatal("wire size")
	}
	// Merge shape mismatch.
	if err := q.Merge(telemetry.NewQuantileRow(telemetry.NumKey(1), 0, 0, 50, 10)); err == nil {
		t.Fatal("incompatible merge must error")
	}
}
