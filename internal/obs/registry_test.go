package obs

import (
	"sync"
	"testing"
	"time"
)

// TestRegistryDynamicAPI pins the name-keyed API to the semantics the
// old metrics.CounterSet had — transport and ha migrated onto it
// verbatim, so Get/Snapshot/String must behave identically.
func TestRegistryDynamicAPI(t *testing.T) {
	r := NewRegistry()
	if got := r.Get("missing"); got != 0 {
		t.Fatalf("missing counter = %d", got)
	}
	r.Inc("conns_accepted")
	r.Add("conns_accepted", 2)
	r.Add("decode_errors", 1)
	if got := r.Get("conns_accepted"); got != 3 {
		t.Fatalf("conns_accepted = %d", got)
	}
	snap := r.Snapshot()
	if snap["conns_accepted"] != 3 || snap["decode_errors"] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
	if s := r.String(); s != "conns_accepted=3 decode_errors=1" {
		t.Fatalf("string = %q", s)
	}
	r.Set("lag", 7)
	if got := r.Get("lag"); got != 7 {
		t.Fatalf("gauge = %d", got)
	}
	r.Set("lag", 2) // gauges overwrite, not accumulate
	if got := r.Get("lag"); got != 2 {
		t.Fatalf("gauge after reset = %d", got)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Inc("ok") // must not panic
	r.Add("ok", 2)
	r.Set("ok", 3)
	if r.Get("ok") != 0 {
		t.Fatal("nil registry must read zero")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatal("nil registry exposition must be a no-op")
	}
	c := r.Counter("ok")
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("handle from nil registry must be a no-op")
	}
}

func TestTypedHandles(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("frames")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 || r.Get("frames") != 5 {
		t.Fatalf("counter = %d / %d", c.Value(), r.Get("frames"))
	}
	g := r.Gauge("depth")
	g.Set(9)
	if g.Value() != 9 || r.Get("depth") != 9 {
		t.Fatalf("gauge = %d / %d", g.Value(), r.Get("depth"))
	}
	f := r.FloatGauge("ratio")
	f.Set(2.5)
	if f.Value() != 2.5 {
		t.Fatalf("float gauge = %v", f.Value())
	}
	h := r.Histogram("lat", []float64{0.001, 0.1})
	h.Observe(time.Millisecond / 2)
	h.Observe(time.Second)
	if h.Count() != 2 {
		t.Fatalf("histogram count = %d", h.Count())
	}
	// Handles resolve to the same cell as later lookups.
	if r.Counter("frames").Value() != 5 {
		t.Fatal("re-resolved counter lost its value")
	}
}

// TestKindConflict: a name registered as one kind returns a no-op
// handle when re-requested as another, instead of corrupting the cell.
func TestKindConflict(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	g := r.Gauge("x")
	g.Set(99)
	if g.Value() != 0 {
		t.Fatal("conflicting-kind handle must be a no-op")
	}
	if r.Get("x") != 1 {
		t.Fatalf("counter value corrupted: %d", r.Get("x"))
	}
}

// TestRegistryConcurrentWriters drives typed handles, the dynamic API
// and scrapes from many goroutines; run with -race.
func TestRegistryConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("racy")
	h := r.Histogram("lat", StageBounds)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c.Inc()
				r.Inc("dyn")
				r.Set("gauge", int64(j))
				h.Observe(time.Microsecond * time.Duration(j))
			}
		}()
	}
	// Concurrent scrapes while writers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			_ = r.Snapshot()
			_ = r.String()
		}
	}()
	wg.Wait()
	if c.Value() != 1600 || r.Get("dyn") != 1600 {
		t.Fatalf("racy = %d, dyn = %d", c.Value(), r.Get("dyn"))
	}
	if h.Count() != 1600 {
		t.Fatalf("histogram count = %d", h.Count())
	}
}

// TestHotPathZeroAllocs bounds the warm instrumentation path at zero
// allocations: counter increments, histogram observations and the
// Now/Since pair that wraps every instrumented stage.
func TestHotPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot")
	f := r.FloatGauge("ratio")
	h := r.Histogram("lat", StageBounds)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		f.Set(1.5)
		h.Observe(time.Millisecond)
		start := Now()
		Since(StageIngest, start)
		Since(StageDecode, start)
	}); n != 0 {
		t.Fatalf("hot path allocates %.1f allocs/op, want 0", n)
	}
}

func TestDisabledTiming(t *testing.T) {
	SetEnabled(false)
	defer SetEnabled(true)
	if !Now().IsZero() {
		t.Fatal("Now must return the zero time when disabled")
	}
	before := stageHists[StageAck].Count()
	Since(StageAck, Now())
	if got := stageHists[StageAck].Count(); got != before {
		t.Fatalf("disabled Since recorded an observation (%d -> %d)", before, got)
	}
	SetEnabled(true)
	Since(StageAck, Now())
	if got := stageHists[StageAck].Count(); got != before+1 {
		t.Fatalf("enabled Since did not record (%d -> %d)", before, got)
	}
}
