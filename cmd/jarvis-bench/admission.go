package main

import (
	"fmt"
	"math"
	"testing"
	"time"

	"jarvis/internal/admission"
	"jarvis/internal/benchcase"
	"jarvis/internal/plan"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/workload"
)

// admissionBenchmarks quantifies the overload-protection subsystem:
//
//   - BenchmarkAdmissionAdmit: the controller's per-epoch admit cost
//     (token-bucket check + counters) on the always-admitted fast path.
//   - AdmissionOverheadPct: that cost as a percentage of one warm
//     columnar SP ingest epoch — the number the ≤3% budget is checked
//     against (min-of-3 on the ingest side to filter scheduler noise).
//   - DegradedModeErrPct@rate=0.25: relative error of sampled-and-
//     rescaled ingestion vs an exact replica on the LogAnalytics query,
//     alongside the a-priori bound the SP records for the tenant.
func admissionBenchmarks() ([]BenchRecord, error) {
	records := []BenchRecord{}

	// The budget is effectively infinite: b.N admits of a ~600 KB epoch
	// must never exhaust the bucket, or the benchmark measures the
	// delayed path instead of the fast path.
	ctrl := admission.NewController(admission.Config{
		RateBytesPerSec: 1e18, BurstBytes: 1e18, Now: time.Now,
	})
	ctrl.Register(1, "bench-tenant", admission.Silver)
	const epochBytes = 600 << 10
	ra := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if v := ctrl.Admit(1, epochBytes); v != admission.Admitted {
				b.Fatalf("unexpected verdict %v", v)
			}
		}
	})
	admitRec := record("BenchmarkAdmissionAdmit", 0, ra)
	records = append(records, admitRec)

	// Warm columnar SP ingest, the denominator of the overhead budget.
	engine, _, cb, err := benchcase.SPIngest()
	if err != nil {
		return nil, err
	}
	ingestNs := math.Inf(1)
	for t := 0; t < 3; t++ {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := engine.IngestColumnar(0, cb); err != nil {
					b.Fatal(err)
				}
			}
		})
		if ns := float64(r.T.Nanoseconds()) / float64(r.N); ns < ingestNs {
			ingestNs = ns
		}
	}
	records = append(records, BenchRecord{
		Name:    "AdmissionOverheadPct",
		NsPerOp: 100 * admitRec.NsPerOp / ingestNs,
	})

	errPct, boundPct, err := degradedModeError(0.25)
	if err != nil {
		return nil, err
	}
	records = append(records,
		BenchRecord{Name: "DegradedModeErrPct@rate=0.25", NsPerOp: errPct},
		BenchRecord{Name: "DegradedModeErrBoundPct@rate=0.25", NsPerOp: boundPct})
	return records, nil
}

// degradedModeError feeds identical LogAnalytics epochs to an exact
// engine and to one ingesting through the degrader's sampled path, then
// compares total counts after rescaling. Returns (observed error %,
// recorded a-priori bound %).
func degradedModeError(rate float64) (float64, float64, error) {
	mkEngine := func() (*stream.SPEngine, error) {
		e, err := stream.NewSPEngine(plan.LogAnalytics())
		if err != nil {
			return nil, err
		}
		e.RegisterSource(1)
		return e, nil
	}
	exact, err := mkEngine()
	if err != nil {
		return 0, 0, err
	}
	sampled, err := mkEngine()
	if err != nil {
		return 0, 0, err
	}
	deg := admission.NewDegrader()
	deg.SetWindowMicros(sampled.WindowDur())
	deg.Degrade("tenant-000", rate)

	gen := workload.NewLogGen(workload.LogConfig{
		Seed: 7, Tenants: 1, MatchRate: 1, IntervalMicros: 500,
	})
	var n int64
	for e := 0; e < 6; e++ {
		batch := gen.NextWindow(1_000_000)
		n += int64(len(batch))
		if err := exact.Ingest(0, batch); err != nil {
			return 0, 0, err
		}
		if err := sampled.Ingest(0, deg.SampleBatch("tenant-000", batch)); err != nil {
			return 0, 0, err
		}
	}
	const flushWM = int64(1) << 40
	exact.ObserveWatermark(1, flushWM)
	sampled.ObserveWatermark(1, flushWM)
	want := exact.Advance()
	got := sampled.Advance()
	deg.Rescale(got)

	sum := func(rows telemetry.Batch) float64 {
		var s float64
		for _, r := range rows {
			if row, ok := r.Data.(*telemetry.AggRow); ok {
				s += float64(row.Count)
			}
		}
		return s
	}
	w, g := sum(want), sum(got)
	if w == 0 {
		return 0, 0, fmt.Errorf("degraded-mode bench produced no exact rows")
	}
	return 100 * math.Abs(g-w) / w, 100 * admission.RelativeErrorBound(rate, n), nil
}
