package main

import (
	"math"
	"testing"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct{ n, p, rank int }{
		{0, 0, 0},
		{10, 0, 0},
		{19, 0, 0}, // p50 would leave 9 beyond
		{20, 50, 10},
		{22, 54, 12},
		{30, 66, 20},
		{100, 90, 90},
		{1000, 99, 990},
		{100000, 99, 99000},
	}
	for _, c := range cases {
		p, rank := tailPercentile(c.n)
		if p != c.p || rank != c.rank {
			t.Errorf("tailPercentile(%d) = p%d rank %d, want p%d rank %d", c.n, p, rank, c.p, c.rank)
		}
		if p > 0 {
			if c.n-rank < minBeyond {
				t.Errorf("n=%d: p%d leaves %d beyond", c.n, p, c.n-rank)
			}
			if next := ((p+1)*c.n + 99) / 100; p < 99 && c.n-next >= minBeyond {
				t.Errorf("n=%d: p%d also leaves %d beyond, so p%d is not the highest", c.n, p+1, c.n-next, p)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	samples := make([]float64, 40)
	for i := range samples {
		samples[i] = float64(40 - i) // 40..1, unsorted on purpose
	}
	s := Summarize(samples)
	if s.Median != 20.5 || s.Count != 40 || s.Pct != 75 || s.Tail != 30 {
		t.Errorf("Summarize = %+v, want median 20.5, n 40, p75 = 30", s)
	}
	if samples[0] != 40 {
		t.Error("Summarize reordered its input")
	}
	odd := Summarize([]float64{3, 1, 2})
	if odd.Median != 2 || odd.Pct != 0 {
		t.Errorf("Summarize(3 samples) = %+v", odd)
	}
	if !math.IsNaN(Summarize(nil).Median) {
		t.Error("Summarize(nil) median should be NaN")
	}
}
