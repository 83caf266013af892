// Package synopsis implements the data synopsis Jarvis is compared
// against in §VI-D: the window-based sampling protocol (WSP) used for
// Fig. 9.
//
// A synopsis trades query accuracy for network transfer; the Fig. 9
// experiment quantifies the trade-off on Pingmesh alerting, where the
// records that matter (high-latency probes) are sparse and easily missed
// by sampling — Jarvis achieves the same transfer reduction losslessly.
package synopsis

import (
	"math/rand/v2"

	"jarvis/internal/telemetry"
)

// WSP is a window-based sampling protocol: within each window every
// record survives independently with the configured rate, so the sample
// of a window is a Bernoulli subsample that downstream operators process
// as usual.
type WSP struct {
	rate float64
	rng  *rand.Rand
}

// NewWSP creates a sampler keeping records with the given rate in (0,1].
func NewWSP(rate float64, seed uint64) *WSP {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return &WSP{rate: rate, rng: rand.New(rand.NewPCG(seed, seed^0xBADC0FFE))}
}

// Rate returns the sampling rate.
func (w *WSP) Rate() float64 { return w.rate }

// Sample returns the surviving subset of the batch.
func (w *WSP) Sample(batch telemetry.Batch) telemetry.Batch {
	out := make(telemetry.Batch, 0, int(float64(len(batch))*w.rate)+1)
	for _, rec := range batch {
		if w.rng.Float64() < w.rate {
			out = append(out, rec)
		}
	}
	return out
}
