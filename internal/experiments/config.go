// Package experiments regenerates every table and figure in the paper's
// evaluation (§VI). Each driver returns structured rows plus a formatted
// text table printing the same series the paper plots; cmd/jarvis-bench
// and the repository benchmarks invoke them.
//
// Absolute numbers come from the calibrated cost model (DESIGN.md); the
// claims the paper makes — who wins, by what factor, where crossovers
// fall — are asserted by this package's tests and recorded against the
// paper in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"strings"
)

// Network constants from §VI-A (after the paper's 10× scaling).
const (
	// PerSourceBWMbps is the per-query per-source bandwidth share:
	// 10 Gbps / 250 nodes / 20 queries × 10.
	PerSourceBWMbps = 20.48
	// AggBWMbps is the per-query aggregate SP ingress: 10 Gbps / 20.
	AggBWMbps = 500.0
)

// Budgets is the CPU-budget sweep of Fig. 7 (percent of one core).
var Budgets = []float64{0.2, 0.4, 0.6, 0.8, 1.0}

// table is a small fixed-width text table builder shared by the drivers.
type table struct {
	b strings.Builder
}

func (t *table) title(s string)  { fmt.Fprintf(&t.b, "%s\n%s\n", s, strings.Repeat("-", len(s))) }
func (t *table) row(cols ...any) { fmt.Fprintln(&t.b, formatCols(cols...)) }
func (t *table) line(s string)   { fmt.Fprintln(&t.b, s) }
func (t *table) String() string  { return t.b.String() }
func formatCols(cols ...any) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		switch v := c.(type) {
		case float64:
			parts[i] = fmt.Sprintf("%10.2f", v)
		case int:
			parts[i] = fmt.Sprintf("%10d", v)
		case string:
			parts[i] = fmt.Sprintf("%-12s", v)
		default:
			parts[i] = fmt.Sprintf("%10v", v)
		}
	}
	return strings.Join(parts, " ")
}
