package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs, or 0 when
// fewer than two samples are present.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Min returns the smallest element of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. The input need not be
// sorted. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

// sortedPercentile is Percentile for an already-sorted slice.
func sortedPercentile(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Summary holds the common aggregate statistics for a sample set.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	P50    float64
	P90    float64
	P99    float64
	P9999  float64 // 99.99th percentile, used by soft-real-time admission
}

// Summarize computes a Summary over xs.
func Summarize(xs []float64) Summary {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	sum := Summary{N: len(xs), Mean: Mean(xs), StdDev: StdDev(xs)}
	if len(s) == 0 {
		return sum
	}
	sum.Min = s[0]
	sum.Max = s[len(s)-1]
	sum.P50 = sortedPercentile(s, 50)
	sum.P90 = sortedPercentile(s, 90)
	sum.P99 = sortedPercentile(s, 99)
	sum.P9999 = sortedPercentile(s, 99.99)
	return sum
}

// String renders the summary on one line with millisecond-style precision.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f p99=%.3f p99.99=%.3f max=%.3f",
		s.N, s.Mean, s.StdDev, s.Min, s.P50, s.P99, s.P9999, s.Max)
}
