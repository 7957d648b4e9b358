package main

import (
	"math"
	"sort"
)

// quantile is one order statistic of a sample together with the sample
// size it rests on, so a printed percentile always says how many
// observations lie beyond it.
type quantile struct {
	Q      float64 // the requested quantile, in (0, 1]
	Value  float64
	N      int // sample count
	Beyond int // observations strictly after the chosen rank
}

// nearestRank returns the q-quantile of xs by the nearest-rank rule
// (the ceil(q·N)-th smallest value). xs is sorted in place.
func nearestRank(xs []float64, q float64) quantile {
	r := quantile{Q: q, N: len(xs)}
	if len(xs) == 0 {
		return r
	}
	sort.Float64s(xs)
	idx := int(math.Ceil(q*float64(len(xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	r.Value = xs[idx]
	r.Beyond = len(xs) - idx - 1
	return r
}

// median returns the middle value of xs (the mean of the two middle
// values for even counts); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// binQuantile estimates the q-quantile of an integer-binned histogram
// whose bin v holds observations in [v, v+1): it finds the bin where the
// cumulative count crosses q·N and interpolates linearly inside it, the
// way Prometheus' histogram_quantile reads bucketed series. counts[v]
// is bin v's count.
func binQuantile(counts []uint64, q float64) quantile {
	var n uint64
	for _, c := range counts {
		n += c
	}
	r := quantile{Q: q, N: int(n)}
	if n == 0 {
		return r
	}
	target := q * float64(n)
	var cum uint64
	for v, c := range counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= target {
			r.Value = float64(v) + (target-float64(cum))/float64(c)
			r.Beyond = int(n - cum - c)
			return r
		}
		cum += c
	}
	r.Value = float64(len(counts))
	return r
}
