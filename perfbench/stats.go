package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks (the numpy default). xs need not
// be sorted and is not modified. An empty input gives NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo = 0
	}
	if hi >= len(s) {
		hi = len(s) - 1
	}
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// mbps converts bytes processed in d into megabytes (10^6 bytes) per
// second. A zero or negative duration gives NaN.
func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return math.NaN()
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// ms and us express a duration in milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// mean of xs; NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// valueRange is max − min of xs (the field's true range, not a
// declared envelope).
func valueRange(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return hi - lo
}

// errStats returns the mean squared error and the largest pointwise
// |orig − recon|. A NaN anywhere makes maxErr NaN, which fails every
// bound check.
func errStats(orig, recon []float64) (mse, maxErr float64) {
	if len(orig) != len(recon) || len(orig) == 0 {
		return math.NaN(), math.NaN()
	}
	var sum float64
	for i, x := range orig {
		d := math.Abs(x - recon[i])
		sum += d * d
		if d > maxErr {
			maxErr = d
		}
	}
	if math.IsNaN(sum) {
		return math.NaN(), math.NaN()
	}
	return sum / float64(len(orig)), maxErr
}

// psnrDB is 20·log10(vr) − 10·log10(mse): +Inf for an exact
// reconstruction, NaN for a zero range or an undefined MSE.
func psnrDB(vr, mse float64) float64 {
	if !(vr > 0) || math.IsNaN(mse) {
		return math.NaN()
	}
	if mse == 0 {
		return math.Inf(1)
	}
	return 20*math.Log10(vr) - 10*math.Log10(mse)
}
