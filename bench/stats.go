package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail read from fewer is set by a handful of samples and does not
// repeat from run to run.
const minBeyond = 10

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for no values.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points dividing xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with
// its default "exclusive" method, so a spread computed here agrees with
// one computed from a results file in Python. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", ld)
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3), nil
}

// percentile returns the nearest-rank p-th percentile of xs: the
// smallest sample with at least p percent of the samples at or below
// it. It refuses a percentile with fewer than minBeyond samples beyond
// it.
func percentile(xs []float64, p int) (float64, error) {
	n := len(xs)
	rank := max(1, (p*n+99)/100) // ceil(p*n/100) in integers
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return sortedCopy(xs)[rank-1], nil
}

// segment is one slice of a run: the work it completed and how long it
// took. Throughput is reported as the median rate over segments, so a
// slice disturbed by the host moves the figure by one rank, not by its
// share of the total.
type segment struct {
	work float64
	dur  time.Duration
}

// medianRate returns the median over segments of work per second.
func medianRate(segs []segment) (float64, error) {
	if len(segs) == 0 {
		return 0, errors.New("no complete segment to take a rate from: run longer")
	}
	rates := make([]float64, len(segs))
	for i, s := range segs {
		rates[i] = s.work / s.dur.Seconds()
	}
	return median(rates), nil
}

// intervals cuts completion offsets (from the start of a phase) into
// segments of at least width, one unit of work per completion. Each
// segment ends at a completion, so its rate is measured between two
// completion instants rather than counted in a fixed window. The
// completions after the last whole segment are dropped.
func intervals(done []time.Duration, width time.Duration) []segment {
	done = append([]time.Duration(nil), done...)
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	var segs []segment
	var from time.Duration
	n := 0
	for _, t := range done {
		n++
		if t-from >= width {
			segs = append(segs, segment{float64(n), t - from})
			from, n = t, 0
		}
	}
	return segs
}
