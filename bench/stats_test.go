package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 3}, [3]float64{0.5, 2.0, 3.5}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3.0, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10.0, 10.5, 9.8, 10.2, 11.0, 9.9, 10.1, 10.3, 10.0, 10.4}, [3]float64{9.975, 10.15, 10.425}},
	} {
		q1, q2, q3, err := quartiles(tc.xs)
		if err != nil {
			t.Fatal(err)
		}
		if !near(q1, tc.want[0]) || !near(q2, tc.want[1]) || !near(q3, tc.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.xs, q1, q2, q3, tc.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value should be refused")
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n, p int
		want float64
	}{
		{200, 95, 190},
		{1000, 99, 990},
		{20, 50, 10},
		{21, 50, 11},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if err != nil || got != tc.want {
			t.Errorf("p%d of 1..%d = %v, %v; want %v", tc.p, tc.n, got, err, tc.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct{ n, p int }{
		{199, 95}, // rank 190, 9 beyond
		{999, 99},
		{19, 50},
		{0, 50},
	} {
		if v, err := percentile(seq(tc.n), tc.p); err == nil {
			t.Errorf("p%d of %d samples = %v; want a refusal", tc.p, tc.n, v)
		}
	}
}

func TestMedianRate(t *testing.T) {
	got, err := medianRate([]segment{
		{work: 100, dur: time.Second},     // 100/s
		{work: 300, dur: 2 * time.Second}, // 150/s
		{work: 10, dur: time.Second},      // 10/s: a disturbed slice moves the median by one rank only
	})
	if err != nil || got != 100 {
		t.Errorf("medianRate = %v, %v; want 100", got, err)
	}
	if _, err := medianRate(nil); err == nil {
		t.Error("medianRate of no segments should be refused")
	}
}

func TestIntervalsEndAtCompletions(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// Completions every 100ms, out of order, for 2.55s.
	var done []time.Duration
	for i := 25; i >= 1; i-- {
		done = append(done, ms(100*i))
	}
	segs := intervals(done, time.Second)
	if len(segs) != 2 {
		t.Fatalf("got %d segments, want 2: %v", len(segs), segs)
	}
	for i, s := range segs {
		if s.work != 10 || s.dur != time.Second {
			t.Errorf("segment %d = %+v, want 10 ops in 1s", i, s)
		}
	}
	if got, _ := medianRate(segs); got != 10 {
		t.Errorf("rate %v, want 10/s", got)
	}
}
