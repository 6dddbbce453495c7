package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helper must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		fail bool
	}{
		{19, 0.5, true},
		{20, 0.5, false},
		{99, 0.9, true},
		{100, 0.9, false},
		{999, 0.99, true},
		{1000, 0.99, false},
	} {
		_, err := percentile(seq(c.n), c.q)
		if (err != nil) != c.fail {
			t.Errorf("p%g of %d samples: err = %v, want failure %v", c.q*100, c.n, err, c.fail)
		}
	}
	if _, err := percentile(seq(100), 1); err == nil {
		t.Error("q = 1 accepted")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	got, err := percentile(seq(20), 0.5) // 1..20: halfway between 10 and 11
	if err != nil || got != 10.5 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10.5", got, err)
	}
	got, err = percentile(seq(101), 0.9) // 1..101: rank 90 exactly
	if err != nil || got != 91 {
		t.Errorf("p90 of 1..101 = %v, %v; want 91", got, err)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}
