package main

import (
	"math"
	"sort"

	"bioschedsim/internal/stats"
)

// minBeyond is how many samples must lie above a reported tail percentile,
// so the tail figure rests on at least that many observations.
const minBeyond = 10

// Summary describes one timing's samples: the median, the highest integer
// percentile with at least minBeyond samples beyond it, and the count.
type Summary struct {
	Median float64 `json:"median"`
	// Pct is the reported tail percentile (50..99), or 0 when there are too
	// few samples for any percentile at or above the median to qualify.
	Pct   int     `json:"pct,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
	Count int     `json:"n"`
}

// Summarize computes the Summary of samples; it does not modify samples.
func Summarize(samples []float64) Summary {
	n := len(samples)
	if n == 0 {
		return Summary{Median: math.NaN()}
	}
	// Percentile interpolates linearly, so p50 averages the middle pair of
	// an even count.
	sum := Summary{Median: stats.Percentile(samples, 50), Count: n}
	if p, rank := tailPercentile(n); p > 0 {
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		sum.Pct, sum.Tail = p, sorted[rank-1]
	}
	return sum
}

// tailPercentile returns the highest integer percentile p in [50, 99]
// whose nearest-rank sample (rank ceil(p·n/100)) leaves at least minBeyond
// samples above it, with that rank. It returns (0, 0) when none qualifies.
func tailPercentile(n int) (p, rank int) {
	for p = 99; p >= 50; p-- {
		rank = (p*n + 99) / 100
		if rank >= 1 && n-rank >= minBeyond {
			return p, rank
		}
	}
	return 0, 0
}
