package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile reads quantile q ∈ [0,1] of an ascending sample by linear
// interpolation between order statistics (the "inclusive" method, matching
// Python's statistics.quantiles(..., method="inclusive") at the quartiles).
// An empty sample reads 0.
func quantile(asc []float64, q float64) float64 {
	switch n := len(asc); n {
	case 0:
		return 0
	case 1:
		return asc[0]
	default:
		pos := q * float64(n-1)
		lo := int(math.Floor(pos))
		hi := min(lo+1, n-1)
		return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
	}
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// percentileLadder lists the tail percentiles the benchmark is willing to
// name, ascending.
var percentileLadder = []float64{0.50, 0.75, 0.90, 0.95, 0.99, 0.999}

// supportedTail applies the choosing-metrics rule "report the highest
// percentile that has at least ten samples beyond it": of percentileLadder
// it returns the highest p with n·(1−p) ≥ 10, or 0 when even the median
// has fewer than ten samples above it.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		// Count in integers: float n·(1−p) reads 9.999… at n=100, p=0.9.
		if beyond := n - int(math.Ceil(float64(n)*p-1e-9)); beyond >= 10 {
			best = p
		}
	}
	return best
}

// spread is the distance between the first and third quartile as a share
// of the median — the steadiness measure the driver applies to ten runs.
// It uses the exclusive method of Python's statistics.quantiles(n=4).
func spread(xs []float64) float64 {
	asc := sorted(xs)
	n := len(asc)
	if n < 2 {
		return 0
	}
	excl := func(k float64) float64 { // k-th quartile, exclusive method
		pos := k*float64(n+1)/4 - 1
		lo := int(math.Floor(pos))
		switch {
		case lo < 0:
			return asc[0]
		case lo >= n-1:
			return asc[n-1]
		}
		return asc[lo] + (asc[lo+1]-asc[lo])*(pos-float64(lo))
	}
	m := quantile(asc, 0.5)
	if m == 0 {
		return 0
	}
	return (excl(3) - excl(1)) / math.Abs(m)
}
