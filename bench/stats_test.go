package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 5}, 5},
	} {
		if got := median(tc.in); !near(got, tc.want) {
			t.Errorf("median(%v) = %g, want %g", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values must be NaN")
	}
}

// The expected quartiles are what Python's statistics.quantiles(v, n=4)
// returns for the same input.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{5}, 5, 5},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
	} {
		q1, q3 := quartiles(tc.in)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending, so sorting matters
		}
		return out
	}
	for _, tc := range []struct {
		n       int
		ok      bool
		pct, at float64
	}{
		{10, false, 0, 0},
		{11, true, 100.0 / 11, 1},
		{20, true, 50, 10},
		{1000, true, 99, 990},
	} {
		pct, v, ok := tail(seq(tc.n))
		if ok != tc.ok || ok && (!near(pct, tc.pct) || !near(v, tc.at)) {
			t.Errorf("tail of %d samples = p%g %g ok=%t; want p%g %g ok=%t", tc.n, pct, v, ok, tc.pct, tc.at, tc.ok)
		}
		if ok {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond != 10 {
				t.Errorf("tail of %d samples leaves %d samples beyond it, want 10", tc.n, beyond)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {100, 10}, {1, 1}} {
		if got := percentile(v, tc.p); got != tc.want {
			t.Errorf("p%g = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{42}, 90); got != 42 {
		t.Errorf("p90 of one value = %g, want 42", got)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{10, 10.2, 9.8, 10.1, 9.9}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		higher bool
		bound  float64
		want   string
	}{
		{"every run better", steady, []float64{10.5, 10.6, 10.7, 10.55, 10.65}, true, 0.1, verdictBetter},
		{"median better beyond the baseline's spread", steady, []float64{9.5, 9.6, 9.4, 10.3, 9.55}, false, 0.1, verdictBetter},
		{"small change", steady, []float64{9.8, 10.0, 9.7, 9.9, 9.85}, true, 0.1, verdictWithin},
		{"improvement inside the baseline's spread", steady, []float64{10.1, 10.0, 10.2, 9.9, 10.15}, true, 0.1, verdictWithin},
		{"higher-is-better regression", steady, []float64{8.5, 8.6, 8.4, 8.5, 8.55}, true, 0.1, verdictWorse},
		{"lower-is-better regression", steady, []float64{11.5, 11.6, 11.4, 11.5, 11.55}, false, 0.1, verdictWorse},
		{"baseline too noisy", []float64{5, 10, 15, 10, 20}, []float64{10, 10, 10, 10, 10}, true, 0.1, verdictUnresolved},
		{"candidate too noisy", steady, []float64{5, 10, 15, 10, 12}, false, 0.1, verdictUnresolved},
		{"no runs", nil, steady, true, 0.1, verdictUnresolved},
	} {
		if got := verdict(tc.a, tc.b, tc.higher, tc.bound); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}
