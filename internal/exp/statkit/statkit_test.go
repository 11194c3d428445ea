package statkit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func close(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestMoments pins mean / sample stddev / stderr against values computed
// independently (by hand and cross-checked with numpy's ddof=1 convention).
func TestMoments(t *testing.T) {
	cases := []struct {
		name                 string
		xs                   []float64
		mean, stddev, stderr float64
	}{
		{"empty", nil, 0, 0, 0},
		{"single", []float64{3.25}, 3.25, 0, 0},
		{"pair", []float64{1, 3}, 2, math.Sqrt2, 1},
		// deviations ±0.05 and 0: variance 0.005/2 = 0.0025, std 0.05,
		// sem 0.05/sqrt(3)
		{"ipc-like", []float64{1.21, 1.26, 1.31}, 1.26, 0.05, 0.028867513459481287},
		// numpy over five seeds: mean=100.8, std=2.5884358211089695, sem=1.1575836902790226
		{"five", []float64{98, 103, 99, 104, 100}, 100.8, 2.5884358211089695, 1.1575836902790226},
		{"constant", []float64{7, 7, 7, 7}, 7, 0, 0},
		{"negative", []float64{-2, 2}, 0, 2.8284271247461903, 2},
		// textbook sample: variance 32/7, so std sqrt(32/7) and sem sqrt(4/7)
		{"known-values", []float64{2, 4, 4, 4, 5, 5, 7, 9}, 5, 2.138089935299395, 0.7559289460184544},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Mean(c.xs); !close(got, c.mean) {
				t.Errorf("Mean = %v, want %v", got, c.mean)
			}
			if got := StdDev(c.xs); !close(got, c.stddev) {
				t.Errorf("StdDev = %v, want %v", got, c.stddev)
			}
			if got := StdErr(c.xs); !close(got, c.stderr) {
				t.Errorf("StdErr = %v, want %v", got, c.stderr)
			}
		})
	}
}

// TestTCritical95 pins the Student-t table against published values and the
// normal tail beyond it.
func TestTCritical95(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{-1, 0}, {0, 0},
		{1, 12.7062}, {2, 4.3027}, {4, 2.7764}, {9, 2.2622},
		{29, 2.0452}, {30, 2.0423}, {31, 1.959964}, {1000, 1.959964},
	}
	for _, c := range cases {
		if got := TCritical95(c.df); !close(got, c.want) {
			t.Errorf("TCritical95(%d) = %v, want %v", c.df, got, c.want)
		}
	}
}

// TestSummarize pins the composed interval: for n=3 the half-width is
// t(0.975,2)=4.3027 times the standard error.
func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1.21, 1.26, 1.31})
	if s.N != 3 {
		t.Fatalf("N = %d, want 3", s.N)
	}
	half := 4.3027 * 0.028867513459481287
	if !close(s.CI95Lo, 1.26-half) || !close(s.CI95Hi, 1.26+half) {
		t.Errorf("CI95 = [%v, %v], want [%v, %v]", s.CI95Lo, s.CI95Hi, 1.26-half, 1.26+half)
	}

	// A single-seed sample must degenerate to a zero-width interval at the
	// mean — the signal CI-aware comparisons use to go inconclusive.
	one := Summarize([]float64{2.5})
	if one.N != 1 || one.Mean != 2.5 || one.StdErr != 0 || one.CI95Lo != 2.5 || one.CI95Hi != 2.5 {
		t.Errorf("single-seed summary = %+v, want zero-width at mean", one)
	}

	// Empty sample: all zeros, no NaNs anywhere.
	zero := Summarize(nil)
	if zero != (Summary{}) {
		t.Errorf("empty summary = %+v, want zero value", zero)
	}
}

// TestTCriticalMonotone pins the shape of the whole table, not just the
// sampled rows TestTCritical95 checks: the critical value never grows with
// the degrees of freedom, and the table meets the normal tail from above.
func TestTCriticalMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		v := TCritical95(df)
		if v > prev {
			t.Fatalf("TCritical95 grows at df=%d: %v > %v", df, v, prev)
		}
		if v < 1.959964 {
			t.Fatalf("TCritical95(%d) = %v, below the normal value", df, v)
		}
		prev = v
	}
}

// TestCI95ShrinksWithN pins that more seeds give a narrower interval for
// the same distribution.
func TestCI95ShrinksWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	draw := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		return xs
	}
	small, large := Summarize(draw(5)), Summarize(draw(500))
	if ws, wl := small.CI95Hi-small.CI95Lo, large.CI95Hi-large.CI95Lo; wl >= ws {
		t.Fatalf("CI95 width %v at n=500, want below %v at n=5", wl, ws)
	}
}

// TestCI95Coverage checks the interval does its job at experiment seed
// counts: over many 3- and 5-seed samples from a normal distribution, the
// 95% interval contains the true mean about 95% of the time. Using the
// normal 1.96 instead of the Student-t value would cover only ~80% at n=3.
func TestCI95Coverage(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const trueMean, trials = 1.5, 4000
	for _, n := range []int{3, 5} {
		contained := 0
		xs := make([]float64, n)
		for trial := 0; trial < trials; trial++ {
			for i := range xs {
				xs[i] = trueMean + 0.2*rng.NormFloat64()
			}
			if s := Summarize(xs); s.CI95Lo <= trueMean && trueMean <= s.CI95Hi {
				contained++
			}
		}
		if frac := float64(contained) / trials; frac < 0.93 || frac > 0.97 {
			t.Errorf("n=%d: CI95 coverage %.3f, want ~0.95", n, frac)
		}
	}
}

// TestVarianceNonNegativeProperty checks Summarize on arbitrary samples:
// the spread is never negative or NaN, and the interval brackets the mean.
func TestVarianceNonNegativeProperty(t *testing.T) {
	if err := quick.Check(func(vals []float64) bool {
		xs := make([]float64, 0, len(vals))
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Bound magnitude to avoid float overflow artifacts.
			xs = append(xs, math.Mod(v, 1e6))
		}
		s := Summarize(xs)
		return s.StdDev >= 0 && s.StdErr >= 0 && s.CI95Lo <= s.Mean && s.Mean <= s.CI95Hi
	}, nil); err != nil {
		t.Fatal(err)
	}
}
