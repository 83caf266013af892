package experiments

import (
	"fmt"
	"math"

	"jarvis/internal/partition"
	"jarvis/internal/plan"
	"jarvis/internal/synopsis"
	"jarvis/internal/telemetry"
	"jarvis/internal/workload"
)

// Fig9Rates are the WSP sampling rates the paper evaluates.
var Fig9Rates = []float64{0.2, 0.4, 0.6, 0.8}

// Fig9Row summarizes one sampling rate.
type Fig9Row struct {
	Rate float64
	// ErrCDF1ms / ErrCDF5ms: fraction of per-pair range-estimation
	// errors within 1 ms and 5 ms (Fig. 9(a)'s CDF read at those points).
	ErrCDF1ms float64
	ErrCDF5ms float64
	// MissedAlerts is the fraction of ground-truth alert pairs (latency
	// above 5 ms) invisible in the sample.
	MissedAlerts float64
	// TransferMbps is the sample's network cost per source.
	TransferMbps float64
}

// Fig9Result compares WSP sampling against Jarvis (§VI-D).
type Fig9Result struct {
	Rows []Fig9Row
	// InputMbps is the raw input rate.
	InputMbps float64
	// JarvisOut100/JarvisOut20 are Jarvis' lossless transfer costs at
	// 100% and 20% CPU budgets (Fig. 9(b)'s horizontal lines).
	JarvisOut100 float64
	JarvisOut20  float64
	// ErrCDFs holds the full error CDFs per rate for plotting.
	ErrCDFs map[float64]*CDF
}

// Fig9 runs the sampling study on a synthetic Pingmesh trace with sparse
// anomalies: per server pair, the query estimates the range of probe
// latencies; sampling misses sparse high-latency probes, degrading both
// the estimate and alerting.
func Fig9(seed uint64) (*Fig9Result, error) {
	cfg := workload.DefaultPingConfig(seed)
	// Unscaled probing density (§VI-A): each server probes 20 K peers
	// every 5 s, i.e. ~2 probes per pair per 10 s window — the sparsity
	// that makes sampling miss anomalies. Wide healthy RTT spread
	// (σ = 0.8 lognormal) reflects production latency tails.
	cfg.Peers = workload.DefaultPeers
	cfg.IntervalMicros = int64(1e6 / workload.RecordsPerSec(workload.PingmeshMbps1x, telemetry.PingProbeWireSize))
	cfg.SigmaLog = 0.8
	cfg.AnomalousPairFrac = 0.02
	gen := workload.NewPingGen(cfg)
	// Three 10 s windows of probes.
	batch := gen.NextWindow(30_000_000)

	type rng struct{ min, max float64 }
	truth := map[uint64]*rng{}
	alerts := map[uint64]bool{}
	observe := func(m map[uint64]*rng, p *telemetry.PingProbe) {
		r := m[p.PairKey()]
		if r == nil {
			m[p.PairKey()] = &rng{float64(p.RTTMicros), float64(p.RTTMicros)}
			return
		}
		v := float64(p.RTTMicros)
		if v < r.min {
			r.min = v
		}
		if v > r.max {
			r.max = v
		}
	}
	for _, rec := range batch {
		p := rec.Data.(*telemetry.PingProbe)
		observe(truth, p)
		if p.RTTMicros > workload.AlertThresholdMicros {
			alerts[p.PairKey()] = true
		}
	}
	if len(alerts) == 0 {
		return nil, fmt.Errorf("fig9: trace generated no alerts")
	}

	// Accuracy is measured on the unscaled-density trace above; transfer
	// is reported at the evaluation's 10×-scaled rate (Fig. 9(b)'s axis),
	// to which sampling cost is proportional either way.
	res := &Fig9Result{
		InputMbps: workload.PingmeshMbps10x,
		ErrCDFs:   map[float64]*CDF{},
	}
	for _, rate := range Fig9Rates {
		w := synopsis.NewWSP(rate, seed+uint64(rate*100))
		sample := w.Sample(batch)
		est := map[uint64]*rng{}
		sampledAlert := map[uint64]bool{}
		for _, rec := range sample {
			p := rec.Data.(*telemetry.PingProbe)
			observe(est, p)
			if p.RTTMicros > workload.AlertThresholdMicros {
				sampledAlert[p.PairKey()] = true
			}
		}
		// Per-pair error in estimating the latency range, in ms.
		var errs []float64
		for key, tr := range truth {
			trueRange := tr.max - tr.min
			estRange := 0.0
			if er := est[key]; er != nil {
				estRange = er.max - er.min
			}
			errs = append(errs, math.Abs(trueRange-estRange)/1000)
		}
		cdf := NewCDF(errs)
		res.ErrCDFs[rate] = cdf
		missed := 0
		for key := range alerts {
			if !sampledAlert[key] {
				missed++
			}
		}
		res.Rows = append(res.Rows, Fig9Row{
			Rate:         rate,
			ErrCDF1ms:    cdf.At(1.0),
			ErrCDF5ms:    cdf.At(5.0),
			MissedAlerts: float64(missed) / float64(len(alerts)),
			TransferMbps: res.InputMbps * rate,
		})
	}

	// Jarvis' lossless transfer at 100% and 20% CPU (Fig. 9(b)).
	for _, b := range []float64{1.0, 0.2} {
		o, _, err := partition.EvaluateStrategy(partition.Jarvis, partition.Scenario{
			Query:         plan.S2SProbe(),
			RateMbps:      workload.PingmeshMbps10x,
			BudgetFrac:    b,
			BandwidthMbps: PerSourceBWMbps,
		})
		if err != nil {
			return nil, err
		}
		if b == 1.0 {
			res.JarvisOut100 = o.OutMbps
		} else {
			res.JarvisOut20 = o.OutMbps
		}
	}
	return res, nil
}

// String renders both panels of Fig. 9.
func (r *Fig9Result) String() string {
	var t table
	t.title("Fig.9: window-based sampling (WSP) vs Jarvis")
	t.row("rate", "err<=1ms", "err<=5ms", "missAlert", "xfer Mbps")
	for _, row := range r.Rows {
		t.row(fmt.Sprintf("%.1f", row.Rate), row.ErrCDF1ms, row.ErrCDF5ms,
			row.MissedAlerts, row.TransferMbps)
	}
	t.line(fmt.Sprintf("input rate:              %7.2f Mbps", r.InputMbps))
	t.line(fmt.Sprintf("Jarvis transfer @100%%:   %7.2f Mbps (zero error, no missed alerts)", r.JarvisOut100))
	t.line(fmt.Sprintf("Jarvis transfer @20%%:    %7.2f Mbps (zero error, no missed alerts)", r.JarvisOut20))
	return t.String()
}
