package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle ones for an even
// count); 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// acceptance procedure uses; with fewer than two values both are the value.
func quartiles(v []float64) (q1, q3 float64) {
	if len(v) < 2 {
		return median(v), median(v)
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	at := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile range as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}
