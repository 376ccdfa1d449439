// Package stats provides the statistical machinery used to validate the
// simulation's velocity distributions: moments, histograms, chi-square
// goodness of fit, and Kolmogorov–Smirnov tests against the Gaussian and
// Maxwell-speed distributions the gas must relax to.
//
//dsmclint:allow exports the statistical oracles (moments, KS and chi-square tests, correlations) the physics property tests judge by
package stats

import (
	"errors"
	"math"
	"sort"
)

// Moments summarises a sample: mean, variance (population), skewness and
// excess-free kurtosis (normal = 3).
type Moments struct {
	N        int
	Mean     float64
	Variance float64
	Skewness float64
	Kurtosis float64
}

// Measure computes the sample moments.
func Measure(xs []float64) Moments {
	m := Moments{N: len(xs)}
	if m.N == 0 {
		return m
	}
	for _, x := range xs {
		m.Mean += x
	}
	m.Mean /= float64(m.N)
	var s2, s3, s4 float64
	for _, x := range xs {
		d := x - m.Mean
		s2 += d * d
		s3 += d * d * d
		s4 += d * d * d * d
	}
	n := float64(m.N)
	m.Variance = s2 / n
	if m.Variance > 0 {
		sd := math.Sqrt(m.Variance)
		m.Skewness = s3 / n / (sd * sd * sd)
		m.Kurtosis = s4 / n / (m.Variance * m.Variance)
	}
	return m
}

// Histogram bins xs into nbins equal-width bins over [lo, hi]; values
// outside the range are clamped into the edge bins.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Total  int
}

// NewHistogram bins the sample.
func NewHistogram(xs []float64, lo, hi float64, nbins int) (*Histogram, error) {
	if nbins <= 0 || hi <= lo {
		return nil, errors.New("stats: invalid histogram range")
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, nbins)}
	w := (hi - lo) / float64(nbins)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		h.Counts[b]++
		h.Total++
	}
	return h, nil
}

// BinCenter returns the centre of bin b.
func (h *Histogram) BinCenter(b int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(b)+0.5)*w
}

// ChiSquare compares the histogram against expected bin probabilities
// given by the cdf of a reference distribution, returning the statistic
// and the degrees of freedom (bins−1). Bins with expected count < 5 are
// merged into their neighbour, the standard validity rule.
func (h *Histogram) ChiSquare(cdf func(float64) float64) (chi2 float64, dof int) {
	nbins := len(h.Counts)
	w := (h.Hi - h.Lo) / float64(nbins)
	type bin struct{ obs, exp float64 }
	var bins []bin
	for b := 0; b < nbins; b++ {
		lo := h.Lo + float64(b)*w
		hi := lo + w
		p := cdf(hi) - cdf(lo)
		if b == 0 {
			p = cdf(hi) // clamped tail
		}
		if b == nbins-1 {
			p = 1 - cdf(lo)
		}
		bins = append(bins, bin{float64(h.Counts[b]), p * float64(h.Total)})
	}
	// Merge small-expectation bins rightward.
	var merged []bin
	for _, bn := range bins {
		if len(merged) > 0 && merged[len(merged)-1].exp < 5 {
			merged[len(merged)-1].obs += bn.obs
			merged[len(merged)-1].exp += bn.exp
		} else {
			merged = append(merged, bn)
		}
	}
	// A trailing small bin merges leftward.
	if n := len(merged); n >= 2 && merged[n-1].exp < 5 {
		merged[n-2].obs += merged[n-1].obs
		merged[n-2].exp += merged[n-1].exp
		merged = merged[:n-1]
	}
	for _, bn := range merged {
		if bn.exp > 0 {
			d := bn.obs - bn.exp
			chi2 += d * d / bn.exp
		}
	}
	return chi2, len(merged) - 1
}

// ChiSquareCritical999 returns an approximate p=0.001 critical value for
// the chi-square distribution with dof degrees of freedom
// (Wilson–Hilferty approximation).
func ChiSquareCritical999(dof int) float64 {
	if dof <= 0 {
		return 0
	}
	k := float64(dof)
	z := 3.0902 // z for p = 0.001
	t := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * t * t * t
}

// NormalCDF is the standard normal cumulative distribution.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// GaussianCDF returns the cdf of N(mean, sigma²).
func GaussianCDF(mean, sigma float64) func(float64) float64 {
	return func(x float64) float64 { return NormalCDF((x - mean) / sigma) }
}

// MaxwellSpeedCDF returns the cdf of the 3D Maxwell speed distribution
// with most probable speed cm: F(c) = erf(x) − (2/√π)·x·exp(−x²), x=c/cm.
func MaxwellSpeedCDF(cm float64) func(float64) float64 {
	return func(c float64) float64 {
		if c <= 0 {
			return 0
		}
		x := c / cm
		return math.Erf(x) - 2/math.SqrtPi*x*math.Exp(-x*x)
	}
}

// RectCDF returns the cdf of the rectangular distribution with mean 0 and
// standard deviation sigma (uniform on ±sigma·√3).
func RectCDF(sigma float64) func(float64) float64 {
	half := sigma * math.Sqrt(3)
	return func(x float64) float64 {
		switch {
		case x <= -half:
			return 0
		case x >= half:
			return 1
		default:
			return (x + half) / (2 * half)
		}
	}
}

// KolmogorovSmirnov returns the KS statistic D = sup|F_n − F| of the
// sample against the reference cdf. The sample is sorted in place.
func KolmogorovSmirnov(xs []float64, cdf func(float64) float64) float64 {
	sort.Float64s(xs)
	n := float64(len(xs))
	var d float64
	for i, x := range xs {
		f := cdf(x)
		if hi := float64(i+1)/n - f; hi > d {
			d = hi
		}
		if lo := f - float64(i)/n; lo > d {
			d = lo
		}
	}
	return d
}

// KSCritical999 returns the asymptotic p=0.001 KS critical value for a
// sample of size n: 1.95/√n.
func KSCritical999(n int) float64 { return 1.95 / math.Sqrt(float64(n)) }

// Autocorrelation returns the lag-k autocorrelation of the series.
func Autocorrelation(xs []float64, k int) float64 {
	n := len(xs)
	if k >= n || k < 0 {
		return 0
	}
	m := Measure(xs)
	if m.Variance == 0 {
		return 0
	}
	var acc float64
	for i := 0; i+k < n; i++ {
		acc += (xs[i] - m.Mean) * (xs[i+k] - m.Mean)
	}
	return acc / float64(n-k) / m.Variance
}

// PairCorrelation returns the Pearson correlation of paired samples.
func PairCorrelation(xs, ys []float64) float64 {
	n := len(xs)
	if n == 0 || n != len(ys) {
		return 0
	}
	mx, my := Measure(xs), Measure(ys)
	if mx.Variance == 0 || my.Variance == 0 {
		return 0
	}
	var acc float64
	for i := range xs {
		acc += (xs[i] - mx.Mean) * (ys[i] - my.Mean)
	}
	return acc / float64(n) / math.Sqrt(mx.Variance*my.Variance)
}
