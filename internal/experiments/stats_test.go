package experiments

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileBasics(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Percentile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P%.2f = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{7}, 0.9); got != 7 {
		t.Fatalf("single sample = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Fatal("empty input should be NaN")
	}
	// Clamping.
	if Percentile(s, -1) != 1 || Percentile(s, 2) != 5 {
		t.Fatal("p clamping")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	s := []float64{0, 10}
	if got := Percentile(s, 0.5); got != 5 {
		t.Fatalf("interp = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	s := []float64{3, 1, 2}
	Percentile(s, 0.5)
	if s[0] != 3 || s[1] != 1 {
		t.Fatal("input mutated")
	}
}

func TestMedianMax(t *testing.T) {
	s := []float64{4, 1, 3}
	if Median(s) != 3 {
		t.Fatal("median")
	}
	if Max(s) != 4 {
		t.Fatal("max")
	}
	if !math.IsNaN(Max(nil)) {
		t.Fatal("empty stats should be NaN")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct {
		x, want float64
	}{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {9, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if c.Len() != 4 {
		t.Fatal("len")
	}
	if got := c.Inverse(0.5); got != 2 {
		t.Fatalf("Inverse(0.5) = %v", got)
	}
	if got := c.Inverse(0); got != 1 {
		t.Fatalf("Inverse(0) = %v", got)
	}
	if got := c.Inverse(1); got != 3 {
		t.Fatalf("Inverse(1) = %v", got)
	}
	empty := NewCDF(nil)
	if empty.At(1) != 0 || !math.IsNaN(empty.Inverse(0.5)) {
		t.Fatal("empty CDF")
	}
}

// Property: CDF.At is monotone and Inverse is a quasi-inverse.
func TestCDFProperties(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		n := 1 + rng.IntN(50)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = rng.Float64() * 100
		}
		c := NewCDF(samples)
		// Monotonicity at sample points.
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		prev := -1.0
		for _, x := range sorted {
			v := c.At(x)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		// Quasi-inverse: At(Inverse(q)) ≥ q.
		for _, q := range []float64{0.1, 0.5, 0.9} {
			if c.At(c.Inverse(q)) < q-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
