package synopsis

import (
	"math"
	"testing"

	"jarvis/internal/telemetry"
	"jarvis/internal/workload"
)

func TestWSPRate(t *testing.T) {
	gen := workload.NewPingGen(workload.DefaultPingConfig(1))
	batch := gen.Next(20000)
	for _, rate := range []float64{0.2, 0.5, 0.8} {
		w := NewWSP(rate, 42)
		kept := len(w.Sample(batch))
		got := float64(kept) / float64(len(batch))
		if math.Abs(got-rate) > 0.02 {
			t.Fatalf("rate %v realized %v", rate, got)
		}
		if w.Rate() != rate {
			t.Fatal("rate accessor")
		}
	}
}

func TestWSPClamp(t *testing.T) {
	if NewWSP(-1, 1).Rate() != 0 || NewWSP(2, 1).Rate() != 1 {
		t.Fatal("rate clamping")
	}
	all := NewWSP(1, 1)
	batch := telemetry.Batch{{Time: 1}, {Time: 2}}
	if len(all.Sample(batch)) != 2 {
		t.Fatal("rate 1 must keep everything")
	}
	none := NewWSP(0, 1)
	if len(none.Sample(batch)) != 0 {
		t.Fatal("rate 0 must keep nothing")
	}
}

func TestWSPPreservesMeanApproximately(t *testing.T) {
	gen := workload.NewPingGen(workload.DefaultPingConfig(3))
	batch := gen.Next(50000)
	mean := func(b telemetry.Batch) float64 {
		var sum float64
		for _, r := range b {
			sum += float64(r.Data.(*telemetry.PingProbe).RTTMicros)
		}
		return sum / float64(len(b))
	}
	full := mean(batch)
	sampled := mean(NewWSP(0.5, 7).Sample(batch))
	if math.Abs(sampled-full)/full > 0.1 {
		t.Fatalf("sampled mean %v deviates from %v", sampled, full)
	}
}

func TestWSPMissesSparseAnomalies(t *testing.T) {
	// The §VI-D effect: sparse high-latency pairs disappear at low
	// sampling rates, so alerts are missed.
	cfg := workload.DefaultPingConfig(5)
	cfg.Peers = 2000
	cfg.AnomalousPairFrac = 0.01
	gen := workload.NewPingGen(cfg)
	batch := gen.Next(2 * cfg.Peers) // two probes per pair

	alertPairs := func(b telemetry.Batch) map[uint64]bool {
		out := map[uint64]bool{}
		for _, r := range b {
			p := r.Data.(*telemetry.PingProbe)
			if p.RTTMicros > workload.AlertThresholdMicros {
				out[p.PairKey()] = true
			}
		}
		return out
	}
	full := alertPairs(batch)
	if len(full) == 0 {
		t.Fatal("no ground-truth alerts generated")
	}
	low := alertPairs(NewWSP(0.2, 9).Sample(batch))
	missed := 0
	for k := range full {
		if !low[k] {
			missed++
		}
	}
	missRate := float64(missed) / float64(len(full))
	if missRate < 0.3 {
		t.Fatalf("0.2 sampling missed only %v of alerts; expected many (2 probes/pair)", missRate)
	}
}
