//go:build linux

package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// p10 is the estimator behind every gated timing: the lower decile of
// many homogeneous ops. On a shared host whose memory system is
// contended in bursts the median carries the bursts; the lower decile
// reads the undisturbed cost and still needs a tenth of the ops to be
// clean, so one lucky op cannot set it (benchmark/README.md has the
// measured spreads).
func p10(xs []float64) float64 { return quantile(xs, 0.10) }

func median(xs []float64) float64 { return quantile(xs, 0.50) }

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method), so -compare reads spreads the way the driver does.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // cut point i of 4
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
