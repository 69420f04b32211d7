package main

import (
	"cmp"
	"slices"
	"sort"
)

// median returns the middle of vals (mean of the two middle values for an
// even count); 0 for no values. vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile (0 < p <= 100) of samples, which
// it sorts in place; 0 for no samples.
func percentile[T cmp.Ordered](samples []T, p float64) T {
	if len(samples) == 0 {
		var zero T
		return zero
	}
	slices.Sort(samples)
	rank := int(float64(len(samples))*p/100+0.9999999) - 1
	return samples[min(max(rank, 0), len(samples)-1)]
}

// quartiles returns the three cut points of vals exactly as Python's
// statistics.quantiles(vals, n=4) does (the default "exclusive" method),
// because that is what the driver accepts or refuses the benchmark by.
// It needs at least two values.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := slices.Clone(vals)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the quartiles as a share of the median:
// the steadiness figure every end-to-end metric is held to.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(vals)
	med := median(vals)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
