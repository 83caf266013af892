package plan

import (
	"math"
	"strings"
	"testing"
	"time"

	"jarvis/internal/operator"
	"jarvis/internal/telemetry"
	"jarvis/internal/workload"
)

func TestS2SProbeStructure(t *testing.T) {
	q := S2SProbe()
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	kinds := []operator.Kind{operator.KindWindow, operator.KindFilter, operator.KindGroupAgg}
	if len(q.Ops) != len(kinds) {
		t.Fatalf("ops = %d", len(q.Ops))
	}
	for i, k := range kinds {
		if q.Ops[i].Kind != k {
			t.Fatalf("op %d kind = %v, want %v", i, q.Ops[i].Kind, k)
		}
	}
	// Calibration: whole query ≈ 85% of a core (paper §VI-B).
	if tot := TotalCostPct(q); math.Abs(tot-85.0) > 1.0 {
		t.Fatalf("S2SProbe total cost = %v%%, want ≈85%%", tot)
	}
	if q.WindowDur() != (10 * time.Second).Microseconds() {
		t.Fatalf("window = %d", q.WindowDur())
	}
}

func TestT2TProbeCalibration(t *testing.T) {
	ips := make([]uint32, 500)
	for i := range ips {
		ips[i] = uint32(i + 1)
	}
	q := T2TProbe(telemetry.NewToRTable(ips, 20))
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	// Table 500: demand exceeds one core; Best-OP cannot even place the
	// first join (W+F+J1 > 100%).
	if tot := TotalCostPct(q); tot <= 100 {
		t.Fatalf("T2T total = %v%%, want > 100%%", tot)
	}
	if pc := PrefixCostPct(q, 3); pc <= 100 {
		t.Fatalf("W+F+J1 = %v%%, want > 100%% (Best-OP must not place J)", pc)
	}

	// Table 50: whole query fits in one core (Fig. 8(b)).
	small := make([]uint32, 50)
	for i := range small {
		small[i] = uint32(i + 1)
	}
	q50 := T2TProbe(telemetry.NewToRTable(small, 5))
	if tot := TotalCostPct(q50); tot > 100 {
		t.Fatalf("T2T(50) total = %v%%, want ≤ 100%%", tot)
	}
}

func TestJoinCostMonotone(t *testing.T) {
	prev := 0.0
	for _, n := range []int{1, 10, 50, 100, 500, 5000} {
		c := JoinCostPct(n)
		if c < prev {
			t.Fatalf("join cost not monotone at %d: %v < %v", n, c, prev)
		}
		prev = c
	}
	if JoinCostPct(0) != JoinCostPct(1) {
		t.Fatal("table size < 1 should clamp")
	}
}

func TestLogAnalyticsEndToEnd(t *testing.T) {
	q := LogAnalytics()
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if tot := TotalCostPct(q); math.Abs(tot-31.0) > 3.0 {
		t.Fatalf("LogAnalytics total = %v%%, want ≈31%%", tot)
	}
	ops, err := q.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	// Push a generated window through the physical pipeline.
	gen := workload.NewLogGen(workload.DefaultLogConfig(3))
	batch := gen.NextWindow(10_000_000)
	recs := batch
	for _, op := range ops {
		var next telemetry.Batch
		for _, r := range recs {
			operator.ProcessRows(op, telemetry.Batch{r}, &next)
		}
		recs = next
	}
	// Nothing emitted until flush; then histogram rows appear.
	if len(recs) != 0 {
		t.Fatalf("pre-flush emissions: %d", len(recs))
	}
	var rows telemetry.Batch
	ops[len(ops)-1].Flush(10_000_000, func(r telemetry.Record) { rows = append(rows, r) })
	if len(rows) == 0 {
		t.Fatal("no histogram rows after flush")
	}
	seen := map[string]bool{}
	for _, r := range rows {
		row := r.Data.(*telemetry.AggRow)
		if row.Count <= 0 {
			t.Fatalf("bad count in %+v", row)
		}
		parts := strings.Split(row.Key.Str, "|")
		if len(parts) != 3 {
			t.Fatalf("bad key %q", row.Key.Str)
		}
		seen[parts[1]] = true
	}
	for _, stat := range []string{"job running time", "cpu util", "memory util"} {
		if !seen[stat] {
			t.Fatalf("no rows for stat %q", stat)
		}
	}
}

func TestS2SProbePipelineProcessing(t *testing.T) {
	q := S2SProbe()
	ops, err := q.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(1))
	batch := gen.NextWindow(10_000_000)
	recs := telemetry.Batch(batch)
	for _, op := range ops {
		var next telemetry.Batch
		for _, r := range recs {
			operator.ProcessRows(op, telemetry.Batch{r}, &next)
		}
		recs = next
	}
	var rows telemetry.Batch
	ops[2].Flush(10_000_000, func(r telemetry.Record) { rows = append(rows, r) })
	if len(rows) == 0 {
		t.Fatal("no aggregate rows")
	}
	// Filter keeps ≈86%: check aggregate counts sum to the kept records.
	kept := 0
	for _, r := range batch {
		if r.Data.(*telemetry.PingProbe).OK() {
			kept++
		}
	}
	var total int64
	for _, r := range rows {
		total += r.Data.(*telemetry.AggRow).Count
	}
	if int(total) != kept {
		t.Fatalf("aggregated %d records, kept %d", total, kept)
	}
}

func TestValidateFailures(t *testing.T) {
	bad := []*Query{
		NewQuery(""),
		NewQuery("empty"),
		{Name: "badwin", Ops: []OpSpec{{Name: "w", Kind: operator.KindWindow}}},
		{Name: "badfilter", Ops: []OpSpec{{Name: "f", Kind: operator.KindFilter}}},
		{Name: "badmap", Ops: []OpSpec{{Name: "m", Kind: operator.KindMap}}},
		{Name: "badjoin", Ops: []OpSpec{{Name: "j", Kind: operator.KindJoin}}},
		{Name: "badagg", Ops: []OpSpec{{Name: "g", Kind: operator.KindGroupAgg}}},
		// GroupAgg without a preceding window.
		{Name: "nowin", Ops: []OpSpec{{
			Name: "g", Kind: operator.KindGroupAgg,
			KeyFn: operator.ProbePairKey, ValFn: operator.ProbeRTT,
		}}},
		// Bad hints.
		{Name: "badhint", Ops: []OpSpec{{
			Name: "w", Kind: operator.KindWindow, WindowDur: 1, RelayBytes: 2,
		}}},
	}
	for _, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("query %q should fail validation", q.Name)
		}
	}
	// Double-predicate filter.
	q := NewQuery("dual").FilterExpr("f", Bool(true), 1, 1)
	q.Ops[0].PredFn = func(telemetry.Record) bool { return true }
	if err := q.Validate(); err == nil {
		t.Error("filter with both predicate forms should fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	q := S2SProbe()
	c := q.Clone()
	c.Ops[0].CostPct = 999
	if q.Ops[0].CostPct == 999 {
		t.Fatal("clone shares Ops slice")
	}
}

func TestPrefixHelpers(t *testing.T) {
	q := S2SProbe()
	if got := PrefixCostPct(q, 0); got != 0 {
		t.Fatalf("prefix 0 cost = %v", got)
	}
	if got := PrefixCostPct(q, 2); math.Abs(got-14.0) > 0.01 {
		t.Fatalf("W+F cost = %v, want 14", got)
	}
	if got := PrefixRelay(q, 2); math.Abs(got-0.86) > 1e-9 {
		t.Fatalf("relay after W+F = %v", got)
	}
	if got := PrefixRelay(q, 3); math.Abs(got-0.86*0.30) > 1e-9 {
		t.Fatalf("relay after G+R = %v", got)
	}
	// n beyond len clamps.
	if PrefixCostPct(q, 99) != TotalCostPct(q) {
		t.Fatal("prefix beyond length should equal total")
	}
}

func TestQueryByName(t *testing.T) {
	for _, name := range []string{"s2s", "t2t", "log", "spans", "S2SProbe"} {
		if _, _, err := QueryByName(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, _, err := QueryByName("nope"); err == nil {
		t.Fatal("unknown query must error")
	}
}

// TestRegistryT2TCoversAgents: the registry's T2T table lists every
// daemon agent's source IP and is §VI's 500 entries, so its join costs
// what T2TQuery(500)'s does.
func TestRegistryT2TCoversAgents(t *testing.T) {
	tor := registryToR()
	if tor.Len() != 500 {
		t.Fatalf("table has %d entries, want 500", tor.Len())
	}
	for id := uint32(1); id <= registrySources; id++ {
		if _, ok := tor.Lookup(0x0A000000 + id); !ok {
			t.Fatalf("agent %d's source IP is not in the table", id)
		}
	}
	q, _, _ := QueryByName("t2t")
	for i, op := range T2TQuery(500).Ops {
		if got := q.Ops[i].CostPct; got != op.CostPct {
			t.Fatalf("op %s costs %v, T2TQuery(500)'s %v", op.Name, got, op.CostPct)
		}
	}
}
