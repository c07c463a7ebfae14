// Package harness is the measurement core of the perf benchmark: seeded
// input derivation, fixed-work windows, order statistics, in-memory spans
// and the report a run prints. It knows nothing about SDL; the workloads
// package supplies the system under test.
package harness

import (
	"math"
	"sort"
)

// Mix derives a 64-bit stream seed from a run seed and a list of stream
// coordinates (workload, client, window, ...), so every generated input is
// a pure function of its coordinates. splitmix64 finalizer per element.
func Mix(seed uint64, coords ...uint64) uint64 {
	h := seed
	for _, c := range coords {
		h += 0x9e3779b97f4a7c15 + c
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// Name hashes a workload name into a stream coordinate (FNV-1a).
func Name(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// Median returns the median of xs (NaN when empty); xs is not modified.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when empty); xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// Quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the driver's spread check uses. It needs at least two values.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		switch {
		case j < 1:
			j = 1
		case j > n-1:
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// Fit returns the least-squares slope of ys against xs and their
// correlation coefficient (NaN with fewer than two points or no variance).
func Fit(xs, ys []float64) (slope, r float64) {
	n := float64(len(xs))
	var mx, my float64
	for i := range xs {
		mx += xs[i] / n
		my += ys[i] / n
	}
	var sxx, sxy, syy float64
	for i := range xs {
		sxx += (xs[i] - mx) * (xs[i] - mx)
		sxy += (xs[i] - mx) * (ys[i] - my)
		syy += (ys[i] - my) * (ys[i] - my)
	}
	return sxy / sxx, sxy / math.Sqrt(sxx*syy)
}

// PercentileNS returns the p-th percentile (0 < p < 100, nearest rank) of
// sorted nanosecond samples, in microseconds.
func PercentileNS(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return float64(sorted[rank]) / 1e3
}
