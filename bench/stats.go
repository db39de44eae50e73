package main

import (
	"sort"
)

// sample is one timing with the number of records it stands for: every
// record of one pacing tick or one read chunk shares a timing.
type sample struct {
	v float64
	w float64
}

// percentiles returns the nearest-rank q-quantiles (each 0 < q <= 1) of
// weighted samples; it sorts samples in place.
func percentiles(samples []sample, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(samples) == 0 {
		return out
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].v < samples[j].v })
	total := 0.0
	for _, s := range samples {
		total += s.w
	}
	for k, q := range qs {
		want, cum := q*total, 0.0
		out[k] = samples[len(samples)-1].v
		for _, s := range samples {
			if cum += s.w; cum >= want {
				out[k] = s.v
				break
			}
		}
	}
	return out
}

// topPercentile returns the highest of p99.9, p99, p90 and p50 that has
// at least ten of n samples beyond it, and 0 when even the median of so
// few samples is not worth reporting.
func topPercentile(n int) float64 {
	for _, permille := range []int{999, 990, 900, 500} {
		if n*(1000-permille) >= 10*1000 {
			return float64(permille) / 1000
		}
	}
	return 0
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the distance between the first and third quartile as a share
// of the median, by the same method as Python's statistics.quantiles
// (exclusive). It needs four values; fewer give ok false.
func spread(xs []float64) (share float64, ok bool) {
	n := len(xs)
	if n < 4 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0, false
	}
	return (quartile(3) - quartile(1)) / m, true
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
