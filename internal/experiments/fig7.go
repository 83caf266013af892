package experiments

import (
	"fmt"

	"jarvis/internal/partition"
	"jarvis/internal/plan"
)

// Fig7Row is one budget point of a Fig. 7 throughput sweep.
type Fig7Row struct {
	// BudgetPct is the CPU budget in percent of one core.
	BudgetPct int
	// TPut maps strategy → sustainable throughput (Mbps).
	TPut map[partition.Strategy]float64
	// Out maps strategy → outbound network traffic at full ingest (Mbps).
	Out map[partition.Strategy]float64
}

// Fig7Result is one full panel of Fig. 7.
type Fig7Result struct {
	Name     string
	RateMbps float64
	Rows     []Fig7Row
}

// Fig7 sweeps query throughput over CPU budgets for all six partitioning
// strategies (Fig. 7(a)–(c)).
func Fig7(name string, q *plan.Query, rateMbps float64) (*Fig7Result, error) {
	res := &Fig7Result{Name: name, RateMbps: rateMbps}
	for _, b := range Budgets {
		row := Fig7Row{
			BudgetPct: int(b*100 + 0.5),
			TPut:      map[partition.Strategy]float64{},
			Out:       map[partition.Strategy]float64{},
		}
		sc := partition.Scenario{
			Query:         q,
			RateMbps:      rateMbps,
			BudgetFrac:    b,
			BandwidthMbps: PerSourceBWMbps,
		}
		for _, st := range partition.Strategies {
			o, _, err := partition.EvaluateStrategy(st, sc)
			if err != nil {
				return nil, fmt.Errorf("fig7 %s @%d%%: %w", st, row.BudgetPct, err)
			}
			row.TPut[st] = o.ThroughputMbps
			row.Out[st] = o.OutMbps
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Fig7All regenerates all three panels.
func Fig7All() (map[string]*Fig7Result, error) {
	out := map[string]*Fig7Result{}
	for _, name := range []string{"s2s", "t2t", "log"} {
		q, rate, err := plan.QueryByName(name)
		if err != nil {
			return nil, err
		}
		r, err := Fig7(name, q, rate)
		if err != nil {
			return nil, err
		}
		out[name] = r
	}
	return out, nil
}

// String renders the panel as the paper's series (Mbps per strategy).
func (r *Fig7Result) String() string {
	var t table
	t.title(fmt.Sprintf("Fig.7 (%s): throughput (Mbps) vs CPU budget, input %.1f Mbps", r.Name, r.RateMbps))
	hdr := []any{"CPU %"}
	for _, st := range partition.Strategies {
		hdr = append(hdr, st.String())
	}
	t.row(hdr...)
	for _, row := range r.Rows {
		cols := []any{row.BudgetPct}
		for _, st := range partition.Strategies {
			cols = append(cols, row.TPut[st])
		}
		t.row(cols...)
	}
	return t.String()
}

// Gain returns Jarvis' throughput ratio over a baseline at a budget.
func (r *Fig7Result) Gain(base partition.Strategy, budgetPct int) float64 {
	for _, row := range r.Rows {
		if row.BudgetPct == budgetPct {
			b := row.TPut[base]
			if b <= 0 {
				return 0
			}
			return row.TPut[partition.Jarvis] / b
		}
	}
	return 0
}
