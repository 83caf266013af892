package experiments

import (
	"fmt"

	"jarvis/internal/partition"
	"jarvis/internal/plan"
	"jarvis/internal/sim"
)

// LatencyRow holds the §VI-E epoch-processing-latency comparison for one
// node count.
type LatencyRow struct {
	Nodes        int
	JarvisMedian float64
	JarvisMax    float64
	BestOPMedian float64
	BestOPMax    float64
}

// LatencyResult is the §VI-E study: 5× input scaling, 30% CPU budget,
// with the SP link shared across nodes. At 40 nodes both policies keep
// up and Jarvis' smaller transfers cut latency; at 60 nodes Best-OP is
// network bottlenecked and its worst-case latency grows without bound
// while Jarvis stays within the 5 s bound.
type LatencyResult struct {
	Rows []LatencyRow
}

// Latency runs the study over a three-minute (180-epoch) simulation.
func Latency() (*LatencyResult, error) {
	const (
		rate   = 13.1 // 5× scaling
		budget = 0.30
		epochs = 180
		warm   = 20
	)
	res := &LatencyResult{}
	for _, nodes := range []int{40, 60} {
		bw := AggBWMbps / float64(nodes)
		if bw > PerSourceBWMbps {
			bw = PerSourceBWMbps
		}
		row := LatencyRow{Nodes: nodes}
		for _, who := range []partition.Strategy{partition.Jarvis, partition.BestOP} {
			q := plan.S2SProbe()
			factors, err := partition.Factors(who, q, budget, rate, 0)
			if err != nil {
				return nil, err
			}
			cfg := sim.DefaultNodeConfig(q, rate, budget)
			cfg.BandwidthMbps = bw
			node, err := sim.NewNode(cfg)
			if err != nil {
				return nil, err
			}
			trace, err := sim.RunFixed(node, factors, epochs, nil)
			if err != nil {
				return nil, err
			}
			lats := trace.Latencies(warm, epochs)
			med := Median(lats)
			max := Max(lats)
			if who == partition.Jarvis {
				row.JarvisMedian, row.JarvisMax = med, max
			} else {
				row.BestOPMedian, row.BestOPMax = med, max
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the table.
func (r *LatencyResult) String() string {
	var t table
	t.title("§VI-E: epoch processing latency (s), 5x rate, 30% CPU")
	t.row("nodes", "Jarvis p50", "Jarvis max", "BestOP p50", "BestOP max")
	for _, row := range r.Rows {
		t.row(row.Nodes, row.JarvisMedian, row.JarvisMax, row.BestOPMedian, row.BestOPMax)
	}
	t.line(fmt.Sprintf("paper: at 40 nodes Jarvis median 0.5 s vs Best-OP 1.8 s;"))
	t.line(fmt.Sprintf("       at 60 nodes Best-OP max exceeds 60 s, Jarvis stays within 5 s"))
	return t.String()
}
