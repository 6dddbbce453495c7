package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// percentile resting on fewer is a guess about the tail, not a measurement.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by linear
// interpolation between closest ranks. It refuses, with an error, when
// fewer than minBeyond samples would lie beyond it.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	// The tolerance keeps float rounding (100 × (1 − 0.9) = 9.999…) from
	// refusing a percentile that has exactly minBeyond samples beyond it.
	if beyond := float64(len(xs)) * (1 - q); beyond < minBeyond-1e-9 {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples (%.1f beyond)", q*100, minBeyond, len(xs), beyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo)), nil
}

// median is the middle of xs (mean of the middle pair for an even count);
// it is the benchmark's summary of repeated measurements within a run, so
// it carries no tail rule. NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
