package stream

import (
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"jarvis/internal/plan"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
)

func TestProxyRouteFractionExact(t *testing.T) {
	f := func(pct uint8) bool {
		p := float64(pct%101) / 100
		px := NewProxy(0)
		px.SetLoadFactor(p)
		const n = 1000
		fwd := 0
		for i := 0; i < n; i++ {
			if px.Route(telemetry.Record{WireSize: 86}) {
				fwd++
			}
		}
		// Error diffusion keeps the realized fraction within 1 record.
		return math.Abs(float64(fwd)-p*n) <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProxyStatsAndBytes(t *testing.T) {
	px := NewProxy(3)
	if px.Stage() != 3 {
		t.Fatal("stage")
	}
	px.SetLoadFactor(0.5)
	for i := 0; i < 10; i++ {
		px.Route(telemetry.Record{WireSize: 100})
	}
	s := px.EndEpoch(0, 0, 0.1, 0.2)
	if s.In != 10 || s.Forwarded != 5 || s.Drained != 5 {
		t.Fatalf("stats = %+v", s)
	}
	if s.DrainedBytes != 500 {
		t.Fatalf("drained bytes = %d", s.DrainedBytes)
	}
	// Counters reset after EndEpoch.
	s2 := px.EndEpoch(0, 0, 0.1, 0.2)
	if s2.In != 0 {
		t.Fatal("EndEpoch must reset counters")
	}
}

func TestProxyClamping(t *testing.T) {
	px := NewProxy(0)
	px.SetLoadFactor(2)
	if px.LoadFactor() != 1 {
		t.Fatal("clamp high")
	}
	px.SetLoadFactor(-1)
	if px.LoadFactor() != 0 {
		t.Fatal("clamp low")
	}
}

func TestProxyStateClassification(t *testing.T) {
	mk := func(p float64, n int) *Proxy {
		px := NewProxy(0)
		px.SetLoadFactor(p)
		for i := 0; i < n; i++ {
			px.Route(telemetry.Record{WireSize: 1})
		}
		return px
	}
	// Congested: pending beyond DrainedThres of arrivals.
	s := mk(1, 100).EndEpoch(20, 0, 0.1, 0.2)
	if s.State != StateCongested {
		t.Fatalf("state = %v, want congested", s.State)
	}
	// Pending within tolerance: stable.
	s = mk(1, 100).EndEpoch(5, 0, 0.1, 0.2)
	if s.State != StateStable {
		t.Fatalf("state = %v, want stable", s.State)
	}
	// Idle: spare budget, empty queue, p < 1.
	s = mk(0.5, 100).EndEpoch(0, 0.5, 0.1, 0.2)
	if s.State != StateIdle {
		t.Fatalf("state = %v, want idle", s.State)
	}
	// p == 1 cannot be idle (nothing more to take).
	s = mk(1, 100).EndEpoch(0, 0.5, 0.1, 0.2)
	if s.State != StateStable {
		t.Fatalf("state = %v, want stable at p=1", s.State)
	}
	// Spare below IdleThres: stable.
	s = mk(0.5, 100).EndEpoch(0, 0.1, 0.1, 0.2)
	if s.State != StateStable {
		t.Fatalf("state = %v, want stable below IdleThres", s.State)
	}
}

func TestProxyStateStrings(t *testing.T) {
	if StateStable.String() != "stable" || StateIdle.String() != "idle" ||
		StateCongested.String() != "congested" || ProxyState(9).String() != "unknown" {
		t.Fatal("state strings")
	}
}

func TestQueryStateAggregation(t *testing.T) {
	if QueryState(nil) != StateStable {
		t.Fatal("empty stats should be stable")
	}
	mk := func(states ...ProxyState) []ProxyStats {
		out := make([]ProxyStats, len(states))
		for i, s := range states {
			out[i].State = s
		}
		return out
	}
	if QueryState(mk(StateStable, StateCongested, StateIdle)) != StateCongested {
		t.Fatal("any congested → congested")
	}
	if QueryState(mk(StateIdle, StateIdle)) != StateIdle {
		t.Fatal("all idle → idle")
	}
	if QueryState(mk(StateIdle, StateStable)) != StateStable {
		t.Fatal("mixed idle/stable → stable")
	}
}

// FuzzRouteSection holds the wave loop's section routing (routeCols,
// which moves a section whole at load factor 0 and 1) to a twin proxy
// deciding row by row through RouteSize, with forced drains once the
// room is spent: the same rows forwarded and drained, in order, the same
// stats and drained bytes, and the same error-diffusion state to the bit.
// Each section takes 3 bytes of data: its row count (0–300), whether it
// is dense or selects a pseudo-random subset, whether it is a ping or a
// log section (variable row sizes), and its load factor from
// {0, 1, 1/16, 0.3125, lf}.
func FuzzRouteSection(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, lf float64, room int) {
		if math.IsNaN(lf) {
			lf = 0.5
		}
		room = min(max(room, 0), 1<<12)
		factors := [...]float64{0, 1, 1.0 / 16, 0.3125, lf}
		p, err := NewPipeline(plan.S2SProbe(), DefaultOptions(1, 0))
		if err != nil {
			t.Fatal(err)
		}
		px, twin := p.proxies[0], NewProxy(0)
		type row struct{ sec, idx int }
		var gotFwd, gotDrain, wantFwd, wantDrain []row
		var fwd []wire.ColSec
		fwdTotal, twinFwd := 0, 0
		live := func(sec *wire.ColSec, s int, into *[]row) {
			sec.Live(func(i int) { *into = append(*into, row{s, i}) })
		}
		for s := 0; len(data) >= 3; s++ {
			n, flags := (int(data[0])|int(data[1])<<8)%301, data[2]
			data = data[3:]
			sec := fuzzSection(n, flags, s)
			px.SetLoadFactor(factors[flags>>2%5])
			twin.SetLoadFactor(factors[flags>>2%5])

			nf, nd := len(fwd), len(p.colDrains[0].Secs)
			var k int
			fwd, k = p.routeCols(0, &sec, room-fwdTotal, fwd)
			fwdTotal += k
			for j := nf; j < len(fwd); j++ {
				live(&fwd[j], s, &gotFwd)
			}
			for j := nd; j < len(p.colDrains[0].Secs); j++ {
				live(&p.colDrains[0].Secs[j], s, &gotDrain)
			}

			sec.Live(func(i int) {
				size := sec.RowBytes(i)
				switch {
				case twinFwd >= room:
					twin.NoteForcedDrain(size)
					wantDrain = append(wantDrain, row{s, i})
				case twin.RouteSize(size):
					twinFwd++
					wantFwd = append(wantFwd, row{s, i})
				default:
					wantDrain = append(wantDrain, row{s, i})
				}
			})
		}
		if !slices.Equal(gotFwd, wantFwd) || !slices.Equal(gotDrain, wantDrain) {
			t.Fatalf("forwarded %v drained %v, row by row %v and %v", gotFwd, gotDrain, wantFwd, wantDrain)
		}
		if px.stats != twin.stats || p.colDrainBytes != twin.stats.DrainedBytes {
			t.Fatalf("stats %+v (drain bytes %d), row by row %+v", px.stats, p.colDrainBytes, twin.stats)
		}
		if math.Float64bits(px.acc) != math.Float64bits(twin.acc) {
			t.Fatalf("acc %v, row by row %v", px.acc, twin.acc)
		}
	})
}

// fuzzSection builds an n-row section: flags bit 0 selects a
// pseudo-random subset of the rows, bit 1 makes it a log section whose
// rows differ in size instead of a ping section.
func fuzzSection(n int, flags byte, seed int) wire.ColSec {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(flags)))
	sec := wire.ColSec{Times: make([]int64, n), Windows: make([]int64, n)}
	if flags&2 != 0 {
		sec.Log = &wire.LogCols{TS: make([]int64, n), Raw: make([]string, n)}
		for i := range sec.Log.Raw {
			sec.Log.Raw[i] = strings.Repeat("x", rng.IntN(40))
		}
	} else {
		c := make([]uint32, n)
		sec.Ping = &wire.PingCols{TS: make([]int64, n), SrcIP: c, SrcCluster: c, DstIP: c, DstCluster: c, RTT: c, Err: c}
	}
	if flags&1 != 0 {
		sec.Sel = []int32{}
		for i := range n {
			if rng.IntN(3) > 0 {
				sec.Sel = append(sec.Sel, int32(i))
			}
		}
	}
	return sec
}
