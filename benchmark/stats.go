package main

import (
	"math"
	"slices"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return percentile(s, 50)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var t float64
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// tailPercentiles are the tail points the harness will report, highest
// first, each with the share of samples beyond it as an exact fraction.
var tailPercentiles = []struct {
	p        float64
	num, den int
}{{99.9, 1, 1000}, {99, 1, 100}, {98, 2, 100}, {95, 5, 100}, {90, 10, 100}, {75, 25, 100}}

// supportedTail returns the highest tail percentile with at least ten of
// n samples beyond it, or 50 when even p75 has fewer.
func supportedTail(n int) float64 {
	for _, t := range tailPercentiles {
		if n*t.num >= 10*t.den {
			return t.p
		}
	}
	return 50
}

// spread is the interquartile range of v as a share of its median, the
// steadiness figure the bounds are held against.
func spread(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	m := percentile(s, 50)
	if m == 0 {
		return 0
	}
	return (percentile(s, 75) - percentile(s, 25)) / m
}
