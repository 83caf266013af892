package experiments

import (
	"math"
	"sort"
)

// Sample statistics the figures report with: exact percentiles over
// latency samples (latency.go) and the empirical error CDF of Fig. 9
// (fig9.go).

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of samples using linear
// interpolation between closest ranks. It returns NaN for empty input.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median is Percentile(samples, 0.5).
func Median(samples []float64) float64 { return Percentile(samples, 0.5) }

// Max returns the maximum sample (NaN for empty input).
func Max(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	max := samples[0]
	for _, v := range samples[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// CDF is an empirical cumulative distribution over a sample set.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF (copies and sorts the samples).
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X ≤ x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Inverse returns the smallest x with P(X ≤ x) ≥ q.
func (c *CDF) Inverse(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return c.sorted[idx]
}

// Len returns the sample count.
func (c *CDF) Len() int { return len(c.sorted) }
