package main

import (
	"fmt"
	"math"
	"os"
)

// endToEnd lists the end-to-end metrics with the share of the parent's
// median each may worsen by before it is a regression. BENCHMARK.json
// carries the same table for the driver; a test keeps the two equal.
var endToEnd = []struct {
	name   string
	unit   string
	better string
	bound  float64
}{
	{"setup_s", "s", "lower", 0.25},
	{"sat_records_per_s", "1/s", "higher", 0.25},
	{"ack_p50_ms", "ms", "lower", 0.25},
	{"wire_bytes_per_record", "B", "lower", 0.02},
}

// runAA runs two sets of every workload (aaRuns runs each) on this one
// binary, interleaved (A then B of each workload, run after run), and
// compares each end-to-end metric's medians with its bound. It returns
// the exit code: non-zero when a run failed or any pair of medians
// differs by more than the bound.
func runAA(o options) int {
	code := 0
	for i := range specs {
		s := &specs[i]
		sets := [2]map[string][]float64{{}, {}}
		for r := 0; r < aaRuns; r++ {
			for set := range sets {
				rep, err := runEndToEnd(s, o)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s set %c run %d: %v\n", s.name, 'A'+set, r, err)
					return 1
				}
				for name, m := range rep.result.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		for _, m := range endToEnd {
			a, b := median(sets[0][m.name]), median(sets[1][m.name])
			diff := math.Abs(b-a) / a
			verdict := "ok"
			if diff > m.bound {
				verdict = "EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("%-14s %-24s A %-12.6g B %-12.6g diff %6.2f%% bound %5.1f%% spread A %5.2f%% B %5.2f%%  %s\n",
				s.name, m.name, a, b, diff*100, m.bound*100, spread(sets[0][m.name])*100, spread(sets[1][m.name])*100, verdict)
		}
	}
	return code
}
