package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {10, 1}, {50, 5}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns, the reference the acceptance check computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 3}, [3]float64{0.5, 2, 3.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestClosedThroughputSplitsStraddlers(t *testing.T) {
	s := time.Second
	// Four one-second ops back to back, then a two-second op half
	// inside the 5 s window: 4.5 ops' worth of work.
	var recs []opRec
	for i := 0; i < 4; i++ {
		recs = append(recs, opRec{Start: time.Duration(i) * s, End: time.Duration(i+1) * s})
	}
	recs = append(recs, opRec{Start: 4 * s, End: 6 * s}, opRec{Start: 0, End: s, Err: errFailed})
	if got := closedThroughput(recs, 5*s); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("throughput = %g ops/s, want 0.9 (failed ops excluded)", got)
	}
}

var errFailed = errors.New("failed")

func TestSubWindowP50(t *testing.T) {
	s := time.Second
	var recs []opRec
	for i := 0; i < 5; i++ {
		// Sub-window i holds latencies 1, 2, 3 ms plus i*10 ms of offset;
		// its median is 2+10i, the median of those is 22.
		for _, l := range []time.Duration{1, 2, 3} {
			end := time.Duration(i)*s + s/2
			recs = append(recs, opRec{Intended: end - (l+time.Duration(10*i))*time.Millisecond, End: end})
		}
	}
	got := subWindowP50(recs, 5*s, func(r opRec) time.Duration { return r.End })
	if math.Abs(got-22) > 1e-9 {
		t.Errorf("sub-window p50 = %g, want 22", got)
	}
}

func TestTailPercentilesNeedTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int
	}{{99, 0}, {100, 1}, {999, 1}, {1000, 2}} {
		if got := len(tailPercentiles(c.n)); got != c.want {
			t.Errorf("n=%d: %d tail percentiles, want %d", c.n, got, c.want)
		}
	}
}

func TestZipfCDF(t *testing.T) {
	for _, s := range []float64{0.8, 1.1} {
		cdf := zipfCDF(s, 16)
		if math.Abs(cdf[15]-1) > 1e-12 {
			t.Errorf("s=%g: CDF ends at %g", s, cdf[15])
		}
		// Key 0 outweighs key 1 by 2^s.
		if got := cdf[0] / (cdf[1] - cdf[0]); math.Abs(got-math.Pow(2, s)) > 1e-9 {
			t.Errorf("s=%g: key 0 / key 1 weight %g, want %g", s, got, math.Pow(2, s))
		}
	}
}

func TestParseReadMix(t *testing.T) {
	if u, tw, err := parseReadMix("30/40/30"); err != nil || u != 30 || tw != 40 {
		t.Errorf("30/40/30: %d %d %v", u, tw, err)
	}
	for _, bad := range []string{"50/30", "50/30/30", "a/b/c", "120/-10/-10"} {
		if _, _, err := parseReadMix(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
