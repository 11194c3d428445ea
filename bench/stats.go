package main

import (
	"fmt"
	"math"
	"sort"
)

// summary is the distribution of one metric's samples within a run: the
// median, the quartiles, the sample count, and the tail percentile that
// still has at least ten samples beyond it.
type summary struct {
	Median, Q1, Q3 float64
	N              int
	TailPct        float64 // 0 when fewer than 11 samples
	Tail           float64
}

func summarize(values []float64) summary {
	if len(values) == 0 {
		return summary{}
	}
	s := summary{Median: median(values), N: len(values)}
	s.Q1, s.Q3 = quartiles(values)
	s.TailPct, s.Tail, _ = tail(values)
	return s
}

func (s summary) String() string {
	out := fmt.Sprintf("q1 %.4g  q3 %.4g  n %d", s.Q1, s.Q3, s.N)
	if s.TailPct > 0 {
		out += fmt.Sprintf("  p%.4g %.4g", s.TailPct, s.Tail)
	}
	return out
}

func sorted(values []float64) []float64 {
	out := append([]float64(nil), values...)
	sort.Float64s(out)
	return out
}

func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	d := sorted(values)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(values, n=4) computes them (the default "exclusive"
// method), so spreads printed here match the ones an external script
// computes from the same numbers.
func quartiles(values []float64) (q1, q3 float64) {
	d := sorted(values)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return d[0], d[0]
	}
	const n = 4
	m := len(d) + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// tail returns the highest percentile that has at least ten samples beyond
// it: the 11th-largest value, at percentile 100·(N−10)/N. ok is false below
// 11 samples, where no such percentile exists.
func tail(values []float64) (pct, v float64, ok bool) {
	if len(values) < 11 {
		return 0, 0, false
	}
	d := sorted(values)
	n := len(d)
	return 100 * float64(n-10) / float64(n), d[n-11], true
}

// relSpread is the distance between the quartiles as a share of the median.
func relSpread(values []float64) float64 {
	q1, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(median(values))
}

// Verdicts of compare: how a candidate's runs of one metric stand against a
// baseline's.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges candidate runs b against baseline runs a for a metric where
// higherBetter says which direction is good and bound is the share of a's
// median by which b's median may worsen before it counts as a regression.
//
//   - better: every run of b beats every run of a, or b's median beats a's by
//     more than a's own quartile spread while both spreads are within bound;
//   - unresolved: either side's quartile spread is wider than the bound, so
//     the bound cannot be resolved from these runs;
//   - worse: b's median is worse than a's by more than the bound;
//   - within bound: anything else.
func verdict(a, b []float64, higherBetter bool, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictUnresolved
	}
	sa, sb := sorted(a), sorted(b)
	if higherBetter && sb[0] > sa[len(sa)-1] || !higherBetter && sb[len(sb)-1] < sa[0] {
		return verdictBetter
	}
	if relSpread(a) > bound || relSpread(b) > bound {
		return verdictUnresolved
	}
	ma, mb := median(a), median(b)
	worsening := (mb - ma) / math.Abs(ma)
	if higherBetter {
		worsening = -worsening
	}
	if worsening > bound {
		return verdictWorse
	}
	q1, q3 := quartiles(a)
	if worsening < 0 && -worsening*math.Abs(ma) > q3-q1 {
		return verdictBetter
	}
	return verdictWithin
}
