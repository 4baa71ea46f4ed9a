package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile:
// a p99 over fewer than 1000 samples would be set by a handful of ops.
const minTail = 10

// latencyReport is a timing distribution reduced to what the benchmark
// reports: the median and the 99th percentile, with the sample count.
type latencyReport struct {
	N   int
	P50 float64
	P99 float64
}

// supports reports whether n samples leave at least minTail samples
// beyond quantile q.
func supports(n int, q float64) bool {
	return float64(n)*(1-q) >= minTail
}

// quantile returns the q-quantile of sorted (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// report reduces samples (unsorted; failed ops as +Inf, so they miss
// every latency limit) to a latencyReport. It refuses a sample too
// small for the p99 it would print.
func report(samples []float64) (latencyReport, error) {
	if !supports(len(samples), 0.99) {
		return latencyReport{}, fmt.Errorf("%d samples cannot support a p99 (need %d beyond it)", len(samples), minTail)
	}
	s := sortedCopy(samples)
	return latencyReport{N: len(s), P50: quantile(s, 0.50), P99: quantile(s, 0.99)}, nil
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of unsorted values (the mean of the two middle values for an
// even count); NaN when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean of values; 0 when empty.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// share is part/whole, 0 when whole is 0.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}
