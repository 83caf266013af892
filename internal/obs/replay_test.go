package obs_test

import (
	"bytes"
	"reflect"
	"testing"

	"jarvis/internal/core"
	"jarvis/internal/obs"
)

// TestDecisionTraceReplay is the end-to-end replay smoke test: run an
// adaptive pipeline under load, round-trip the recorded decision trace
// through its JSONL encoding, and reconstruct the load-factor timeline
// deterministically — the final reconstructed vector must be exactly
// the factors the live pipeline ended on.
func TestDecisionTraceReplay(t *testing.T) {
	obs.Decisions().Reset()

	// A tight budget forces real adaptation (probe, profile, adapt), so
	// the trace contains several load_factors decisions.
	src, gen, err := core.NewPingmeshSource(1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 20; e++ {
		if _, err := src.RunEpoch(gen.NextWindow(1_000_000)); err != nil {
			t.Fatal(err)
		}
	}

	ds := obs.Decisions().Recent(0)
	var nLF int
	for _, d := range ds {
		if d.Kind == "load_factors" {
			nLF++
		}
	}
	if nLF == 0 {
		t.Fatal("adaptive run emitted no load_factors decisions")
	}

	// JSONL round trip: what a -obs-decisions file (or /decisions
	// endpoint) would hold must decode back identically.
	var buf bytes.Buffer
	if err := obs.EncodeDecisions(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := obs.DecodeDecisions(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, back) {
		t.Fatal("decision trace changed across the JSONL round trip")
	}

	// Replay: the timeline must chain (each Before equals the prior
	// After — LoadFactorTimeline verifies it) and land on the live
	// pipeline's final factors.
	tl, err := obs.LoadFactorTimeline(back, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) != nLF {
		t.Fatalf("timeline has %d entries, trace has %d load_factors decisions", len(tl), nLF)
	}
	if got := src.LoadFactors(); !reflect.DeepEqual(tl[len(tl)-1], got) {
		t.Fatalf("replayed final factors %v != live factors %v", tl[len(tl)-1], got)
	}
}
