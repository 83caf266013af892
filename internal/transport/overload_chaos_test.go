package transport

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"jarvis/internal/admission"
	"jarvis/internal/obs"
	"jarvis/internal/plan"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
)

// TestOverloadChaosKillRestart is the overload robustness scenario end
// to end over real TCP: a gold tenant within budget and a silver tenant
// at ~10x its budget share a receiver; the SP is killed and restarted
// mid-run while the hot tenant is throttled and then degraded to sampled
// ingestion. Afterwards the gold tenant's results must be byte-identical
// to an exact replica fed the same batches (exactly once, zero loss),
// the degraded tenant's results must be within the recorded error bound,
// the tenant must promote back once pressure clears, and both
// transitions must appear in the decision trace.
func TestOverloadChaosKillRestart(t *testing.T) {
	obs.Decisions().Reset()
	engine, err := stream.NewSPEngine(plan.LogAnalytics())
	if err != nil {
		t.Fatal(err)
	}
	rc := NewReceiver(engine)
	// Silver budget: ~500 KB/s of logical payload — the hot tenant ships
	// ~600 KB per epoch, the gold one ~60 KB (weighted 2x on top).
	rc.SetAdmission(admission.NewController(admission.Config{
		RateBytesPerSec: 500_000, BurstBytes: 500_000,
		MaxDelayedEpochs: 64, DegradeAfter: 2, PromoteAfter: 2,
		DegradeRate: 0.25, MaxThrottle: 200 * time.Millisecond,
		Now: time.Now,
	}))
	ctrl := rc.Admission()
	addr, stop := startTestServer(t, rc)

	// Disjoint tenant populations, one per agent, so result keys map back
	// to the tenant each agent declared in its Hello.
	genVip := workload.NewLogGen(workload.LogConfig{
		Seed: 7, Tenants: 1, FirstTenant: 0, MatchRate: 1, IntervalMicros: 2000,
	})
	genHot := workload.NewLogGen(workload.LogConfig{
		Seed: 8, Tenants: 1, FirstTenant: 1, MatchRate: 1, IntervalMicros: 200,
	})

	vip := NewDurableShipper(1, 256)
	vip.SetIdentity("tenant-000", admission.Gold)
	hot := NewDurableShipper(2, 256)
	hot.SetIdentity("tenant-001", admission.Silver)
	if err := vip.ConnectConn(mustDial(t, addr)); err != nil {
		t.Fatal(err)
	}
	if err := hot.ConnectConn(mustDial(t, addr)); err != nil {
		t.Fatal(err)
	}

	epoch := func(src uint32, batch telemetry.Batch, wm int64) stream.EpochResult {
		return stream.EpochResult{Drains: []wire.ColumnarBatch{rowsBatch(batch)}, Watermark: wm}
	}
	const heavy = 8
	var vipBatches, hotBatches []telemetry.Batch
	for e := 1; e <= heavy; e++ {
		wm := int64(e) * 1_000_000
		bv := genVip.NextWindow(1_000_000)
		bh := genHot.NextWindow(1_000_000)
		vipBatches = append(vipBatches, bv)
		hotBatches = append(hotBatches, bh)
		if err := vip.ShipEpoch(epoch(1, bv, wm)); err != nil {
			t.Fatal(err)
		}
		if err := hot.ShipEpoch(epoch(2, bh, wm)); err != nil {
			t.Fatal(err)
		}
		switch e {
		case 4:
			// Kill the SP mid-overload: the hot tenant has queued epochs and
			// a throttle hint in flight; both agents buffer while down.
			stop()
		case 6:
			addr, stop = startTestServer(t, rc)
			if err := vip.Connect(addr); err != nil {
				t.Fatal(err)
			}
			if err := hot.Connect(addr); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer stop()

	// Sustained 10x pressure must have degraded the hot tenant (never the
	// gold one) and pushed a pacing hint back to its shipper.
	deadline := time.Now().Add(30 * time.Second)
	for ctrl.DegradedRate(2) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hot tenant never degraded under sustained overload")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for hot.ThrottleHint() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hot shipper never received a throttle hint")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ctrl.DegradedRate(1) != 0 {
		t.Fatal("gold tenant must never degrade")
	}

	// Pressure clears: the hot agent's epochs shrink to empty. Its queue
	// drains at the sampled cost and the tenant promotes back to exact.
	tiny := heavy
	for ctrl.DegradedRate(2) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("hot tenant never promoted back after pressure cleared")
		}
		tiny++
		if err := hot.ShipEpoch(epoch(2, nil, int64(tiny)*1_000_000)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Final epochs push the watermark past the 10 s window so every
	// result flushes.
	const flushWM = int64(1) << 40
	if err := vip.ShipEpoch(epoch(1, nil, flushWM)); err != nil {
		t.Fatal(err)
	}
	if err := hot.ShipEpoch(epoch(2, nil, flushWM)); err != nil {
		t.Fatal(err)
	}
	var rows telemetry.Batch
	for rc.AppliedSeq(1) < vip.Seq() || rc.AppliedSeq(2) < hot.Seq() {
		if time.Now().After(deadline) {
			t.Fatalf("frontiers stuck at vip=%d/%d hot=%d/%d",
				rc.AppliedSeq(1), vip.Seq(), rc.AppliedSeq(2), hot.Seq())
		}
		rows = append(rows, rc.Advance()...)
		time.Sleep(10 * time.Millisecond)
	}
	rows = append(rows, rc.Advance()...)
	if vip.Dropped() != 0 || hot.Dropped() != 0 {
		t.Fatalf("replay buffers evicted epochs (vip %d, hot %d)", vip.Dropped(), hot.Dropped())
	}

	// Exact replica fed the very same batches, no transport, no admission.
	exact, err := stream.NewSPEngine(plan.LogAnalytics())
	if err != nil {
		t.Fatal(err)
	}
	exact.RegisterSource(1)
	exact.RegisterSource(2)
	for _, b := range vipBatches {
		if err := exact.Ingest(0, b); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range hotBatches {
		if err := exact.Ingest(0, b); err != nil {
			t.Fatal(err)
		}
	}
	exact.ObserveWatermark(1, flushWM)
	exact.ObserveWatermark(2, flushWM)
	want := exact.Advance()

	got := rowTotals(rows)
	wantTotals := rowTotals(want)
	var hotGot, hotWant float64
	for key, w := range wantTotals {
		g := got[key]
		switch {
		case strings.HasPrefix(key, "tenant-000|"):
			// The un-degraded tenant rode through throttling, kill and
			// restart exactly once: results are byte-identical.
			if g != w {
				t.Fatalf("gold key %q: got %.0f, exact %.0f (must be identical)", key, g, w)
			}
		case strings.HasPrefix(key, "tenant-001|"):
			hotGot += g
			hotWant += w
		}
	}
	if hotWant == 0 {
		t.Fatal("no hot-tenant results to compare")
	}
	relErr := math.Abs(hotGot-hotWant) / hotWant
	bound := 3 * admission.RelativeErrorBound(0.25, int64(hotWant))
	if bound < 0.10 {
		bound = 0.10
	}
	if relErr > bound {
		t.Fatalf("degraded tenant error %.2f%% exceeds bound %.2f%% (got %.0f, exact %.0f)",
			100*relErr, 100*bound, hotGot, hotWant)
	}

	// Both transitions landed in the decision trace, for the hot tenant
	// only.
	var sawDegrade, sawPromote bool
	for _, d := range obs.Decisions().Recent(512) {
		switch d.Kind {
		case "degrade":
			if strings.Contains(d.Detail, "tenant-000") {
				t.Fatalf("gold tenant degraded: %+v", d)
			}
			sawDegrade = sawDegrade || strings.Contains(d.Detail, "tenant-001")
		case "promote":
			sawPromote = sawPromote || strings.Contains(d.Detail, "tenant-001")
		}
	}
	if !sawDegrade || !sawPromote {
		t.Fatalf("decision trace missing transitions (degrade %v, promote %v)", sawDegrade, sawPromote)
	}
	_ = vip.Close()
	_ = hot.Close()
}

// TestOverloadChaosPressureGated closes the pressure loop end to end
// over real TCP: the admission controller's Pressure is a live
// obs.QuantileWindow p99 over the SP's own ingest-stage latency
// histogram — the exact wiring jarvis-sp runs. A hot tenant at ~3x its
// budget must degrade only once the *measured* ingest p99 is over
// threshold, promote back after traffic stops and the window clears,
// and leave both transitions in the decision trace.
func TestOverloadChaosPressureGated(t *testing.T) {
	obs.Decisions().Reset()
	engine, err := stream.NewSPEngine(plan.LogAnalytics())
	if err != nil {
		t.Fatal(err)
	}
	rc := NewReceiver(engine)
	qw := obs.NewQuantileWindow(obs.StageHistogram(obs.StageIngest),
		time.Second, 100*time.Millisecond)
	qw.Tick()               // baseline snapshot: ignore ingest history from earlier tests
	const threshold = 25e-6 // smallest stage bucket: any real log ingest exceeds it
	rc.SetAdmission(admission.NewController(admission.Config{
		RateBytesPerSec: 400_000, BurstBytes: 400_000,
		MaxDelayedEpochs: 64, DegradeAfter: 2, PromoteAfter: 3,
		DegradeRate: 0.25, MaxThrottle: 200 * time.Millisecond,
		Pressure: qw.P99, PressureThreshold: threshold,
		Now: time.Now,
	}))
	ctrl := rc.Admission()
	addr, stop := startTestServer(t, rc)
	defer stop()

	// Capture the measured pressure at each transition, from the decision
	// notify hook (fires synchronously at emit time).
	var mu sync.Mutex
	transitions := map[string]float64{}
	obs.Decisions().SetNotify(func(d obs.Decision) {
		if d.Kind == "degrade" || d.Kind == "promote" {
			mu.Lock()
			if _, seen := transitions[d.Kind]; !seen {
				transitions[d.Kind] = qw.P99()
			}
			mu.Unlock()
		}
	})
	defer obs.Decisions().SetNotify(nil)

	gen := workload.NewLogGen(workload.LogConfig{
		Seed: 9, Tenants: 1, FirstTenant: 2, MatchRate: 1, IntervalMicros: 200,
	})
	hot := NewDurableShipper(3, 256)
	hot.SetIdentity("tenant-002", admission.Silver)
	if err := hot.ConnectConn(mustDial(t, addr)); err != nil {
		t.Fatal(err)
	}
	epoch := func(batch telemetry.Batch, wm int64) stream.EpochResult {
		return stream.EpochResult{Drains: []wire.ColumnarBatch{rowsBatch(batch)}, Watermark: wm}
	}

	// Heavy phase: a sustained hot stream (~300 KB epochs at 5/s against
	// a 400 KB/s budget). The gate only trips once drains put real
	// ingest latencies into the window, so keep shipping until the
	// controller reacts — every arrival is a decision point.
	deadline := time.Now().Add(30 * time.Second)
	wm := int64(0)
	for ctrl.DegradedRate(3) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hot tenant never degraded with the pressure gate armed")
		}
		wm += 500_000
		if err := hot.ShipEpoch(epoch(gen.NextWindow(500_000), wm)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(200 * time.Millisecond)
	}
	mu.Lock()
	degradeP99, ok := transitions["degrade"]
	mu.Unlock()
	if !ok {
		t.Fatal("degrade transition not observed by the notify hook")
	}
	if degradeP99 <= threshold {
		t.Fatalf("degraded while measured ingest p99 (%.0fus) was under the %.0fus gate",
			degradeP99*1e6, threshold*1e6)
	}

	// Calm phase: traffic stops; empty keepalive epochs let the queue
	// drain and the latency window age out, and the tenant promotes.
	for ctrl.DegradedRate(3) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("hot tenant never promoted after pressure cleared")
		}
		wm += 1_000_000
		if err := hot.ShipEpoch(epoch(nil, wm)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	// With traffic stopped the measured signal itself must return below
	// the gate once the heavy ingests age out of the window.
	for qw.P99() > threshold {
		if time.Now().After(deadline) {
			t.Fatalf("measured ingest p99 stuck at %.0fus after the run", qw.P99()*1e6)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Frontier catches up: nothing was lost to the gate.
	for rc.AppliedSeq(3) < hot.Seq() {
		if time.Now().After(deadline) {
			t.Fatalf("frontier stuck at %d/%d", rc.AppliedSeq(3), hot.Seq())
		}
		rc.Advance()
		time.Sleep(10 * time.Millisecond)
	}
	if hot.Dropped() != 0 {
		t.Fatalf("replay buffer evicted %d epochs", hot.Dropped())
	}

	var sawDegrade, sawPromote bool
	for _, d := range obs.Decisions().Recent(512) {
		if !strings.Contains(d.Detail, "tenant-002") {
			continue
		}
		switch d.Kind {
		case "degrade":
			sawDegrade = true
		case "promote":
			sawPromote = true
		}
	}
	if !sawDegrade || !sawPromote {
		t.Fatalf("decision trace missing transitions (degrade %v, promote %v)", sawDegrade, sawPromote)
	}
	_ = hot.Close()
}
