package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"boomsim/internal/exp/statkit"
	"boomsim/internal/stats"
)

// Verdict values. Order of severity: FAIL > INCONCLUSIVE > PASS — a
// composite verdict is the worst of its parts.
const (
	VerdictPass         = "PASS"
	VerdictFail         = "FAIL"
	VerdictInconclusive = "INCONCLUSIVE"
)

// Cell is one completed simulation flattened to plain numbers: the
// scheme/workload/seed/point coordinates plus every metric the run
// produced (headline result fields under their JSON names, per-component
// registry statistics under their dotted names). boomsim.RunExperiment
// produces cells from Results; tests build them by hand.
type Cell struct {
	Scheme   string
	Workload string
	Seed     uint64
	Point    Point
	Metrics  map[string]float64
}

// Report is a finished experiment: the spec's identity, every aggregated
// metric with its uncertainty, and one checked verdict per criterion. It
// is self-contained plain data — JSON renders deterministically (maps
// marshal sorted) except for the single Header.GeneratedAt field, which is
// the report's only timestamp and the only thing allowed to differ between
// two runs of the same spec.
type Report struct {
	Header     Header            `json:"header"`
	Aggregates []Aggregate       `json:"aggregates"`
	Criteria   []CriterionResult `json:"criteria"`
	// Verdict is the experiment's overall outcome: FAIL if any criterion
	// failed, else INCONCLUSIVE if any was inconclusive, else PASS.
	Verdict string `json:"verdict"`
}

// Header identifies what ran and what it claims.
type Header struct {
	Name       string `json:"name"`
	Hypothesis string `json:"hypothesis"`
	// SpecDigest is the SHA-256 of the spec's canonical JSON: the link
	// between a report and the exact experiment definition it answers.
	SpecDigest string `json:"spec_digest"`
	// GeneratedAt is the report's one timestamp (RFC 3339), isolated here
	// so determinism checks can compare everything else byte-for-byte.
	// Empty when the caller wants a fully deterministic report.
	GeneratedAt string   `json:"generated_at,omitempty"`
	Baseline    string   `json:"baseline"`
	Schemes     []string `json:"schemes"`
	Workloads   []string `json:"workloads"`
	Seeds       []uint64 `json:"seeds"`
	// Cells is the number of simulations the experiment ran.
	Cells int `json:"cells"`
}

// Aggregate is one (scheme, workload, parameter point) group's metrics,
// each reduced across seeds to mean/stderr/CI95.
type Aggregate struct {
	Scheme   string `json:"scheme"`
	Workload string `json:"workload"`
	// Params is the parameter-matrix point; omitted for the default point.
	Params *Point `json:"params,omitempty"`
	// Metrics maps metric name to its cross-seed summary; JSON renders it
	// sorted by name.
	Metrics map[string]statkit.Summary `json:"metrics"`
}

// CriterionResult is one criterion's evaluation: the criterion itself,
// one judged row per (workload, point) it applies to, and the combined
// verdict.
type CriterionResult struct {
	Criterion Criterion      `json:"criterion"`
	Rows      []CriterionRow `json:"rows"`
	Verdict   string         `json:"verdict"`
}

// CriterionRow is one (workload, point) judgment.
type CriterionRow struct {
	Workload string `json:"workload"`
	Params   *Point `json:"params,omitempty"`
	// Observed is the judged metric's cross-seed summary.
	Observed statkit.Summary `json:"observed"`
	Verdict  string          `json:"verdict"`
	// Detail is the human-readable comparison, e.g.
	// "mean 1.232 (95% CI [1.198, 1.266]) >= 1.10".
	Detail string `json:"detail"`
}

// defaultReportMetrics are aggregated for every scheme group even when no
// criterion references them: the report should read like the paper's
// figures, not just answer its criteria. Derived metrics are skipped for
// the baseline group (trivially 1 and 0).
var defaultReportMetrics = []string{
	"ipc", MetricSpeedup, MetricCoverage,
	"stall_fraction", "l1i_misses_per_ki", "btb_miss_rate",
	"storage_overhead_kb",
}

// BuildReport aggregates cells against the spec and evaluates every
// criterion. schemeNames is the spec's execution-order scheme list
// (Spec.SchemeNames); cells must hold exactly one entry per
// (scheme, workload, seed, point) combination.
func BuildReport(spec *Spec, schemeNames []string, cells []Cell) (*Report, error) {
	canonical, err := spec.MarshalIndent()
	if err != nil {
		return nil, fmt.Errorf("%w: re-marshaling spec: %v", ErrInvalidSpec, err)
	}
	digest := sha256.Sum256(canonical)

	points := spec.Matrix.Points()
	idx, err := indexCells(spec, schemeNames, points, cells)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Header: Header{
			Name:       spec.Name,
			Hypothesis: spec.Hypothesis,
			SpecDigest: hex.EncodeToString(digest[:]),
			Baseline:   spec.Baseline,
			Schemes:    schemeNames,
			Workloads:  spec.Workloads,
			Seeds:      spec.Seeds,
			Cells:      len(cells),
		},
	}

	// Aggregate metric list: the defaults, the spec's extras, and every
	// criterion metric (recovery rows live under their criterion only).
	metrics := append([]string(nil), defaultReportMetrics...)
	metrics = append(metrics, spec.Metrics...)
	for _, c := range spec.Criteria {
		if c.Metric != MetricRecovery {
			metrics = append(metrics, c.Metric)
		}
	}
	metrics = dedupe(metrics)

	for _, pt := range points {
		for _, scheme := range schemeNames {
			for _, wl := range spec.Workloads {
				agg := Aggregate{
					Scheme:   scheme,
					Workload: wl,
					Params:   pointRef(pt),
					Metrics:  map[string]statkit.Summary{},
				}
				for _, m := range metrics {
					if isDerived(m) && scheme == spec.Baseline {
						continue
					}
					sample, ok := idx.sample(spec, m, Criterion{Scheme: scheme, Workload: wl}, wl, pt)
					if !ok {
						continue // metric absent for this scheme (e.g. boomerang.* on Base)
					}
					agg.Metrics[m] = statkit.Summarize(sample)
				}
				rep.Aggregates = append(rep.Aggregates, agg)
			}
		}
	}

	for _, c := range spec.Criteria {
		cr, err := evaluateCriterion(spec, c, points, idx)
		if err != nil {
			return nil, err
		}
		rep.Criteria = append(rep.Criteria, cr)
	}

	rep.Verdict = VerdictPass
	for _, cr := range rep.Criteria {
		rep.Verdict = worseVerdict(rep.Verdict, cr.Verdict)
	}
	return rep, nil
}

// pointRef returns nil for the default point so it is omitted from JSON.
func pointRef(p Point) *Point {
	if p.IsZero() {
		return nil
	}
	cp := p
	return &cp
}

func dedupe(xs []string) []string {
	seen := map[string]bool{}
	out := xs[:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

func worseVerdict(a, b string) string {
	rank := func(v string) int {
		switch v {
		case VerdictFail:
			return 2
		case VerdictInconclusive:
			return 1
		}
		return 0
	}
	if rank(b) > rank(a) {
		return b
	}
	return a
}

// cellKey addresses one simulation within an experiment.
type cellKey struct {
	scheme, workload string
	seed             uint64
	point            Point
}

type cellIndex map[cellKey]*Cell

// indexCells builds the (scheme, workload, seed, point) index and verifies
// the cell set is exactly the spec's cross product — a missing or
// duplicated cell means the runner and the spec disagree, which would
// silently skew every aggregate.
func indexCells(spec *Spec, schemeNames []string, points []Point, cells []Cell) (cellIndex, error) {
	idx := make(cellIndex, len(cells))
	for i := range cells {
		c := &cells[i]
		k := cellKey{c.Scheme, c.Workload, c.Seed, c.Point}
		if _, dup := idx[k]; dup {
			return nil, fmt.Errorf("%w: duplicate cell %s/%s seed %d (%s)",
				ErrInvalidSpec, c.Scheme, c.Workload, c.Seed, c.Point)
		}
		idx[k] = c
	}
	want := len(schemeNames) * len(spec.Workloads) * len(spec.Seeds) * len(points)
	if len(cells) != want {
		return nil, fmt.Errorf("%w: %d cells for a %d-cell experiment",
			ErrInvalidSpec, len(cells), want)
	}
	for _, pt := range points {
		for _, s := range schemeNames {
			for _, w := range spec.Workloads {
				for _, seed := range spec.Seeds {
					if _, ok := idx[cellKey{s, w, seed, pt}]; !ok {
						return nil, fmt.Errorf("%w: missing cell %s/%s seed %d (%s)",
							ErrInvalidSpec, s, w, seed, pt)
					}
				}
			}
		}
	}
	return idx, nil
}

// sample collects one metric's per-seed values for (c.Scheme, wl, pt), in
// seed order. Derived metrics are computed against the baseline (and, for
// recovery, c.Reference) cell of the same (workload, seed, point). The
// bool is false when a direct metric is absent from the scheme's cells —
// scheme-specific registry statistics simply don't appear in other
// schemes' aggregates.
func (idx cellIndex) sample(spec *Spec, metric string, c Criterion, wl string, pt Point) ([]float64, bool) {
	out := make([]float64, 0, len(spec.Seeds))
	for _, seed := range spec.Seeds {
		cell := idx[cellKey{c.Scheme, wl, seed, pt}]
		switch metric {
		case MetricSpeedup:
			out = append(out, speedup(idx.baseline(spec, wl, seed, pt), cell))
		case MetricCoverage:
			base := idx.baseline(spec, wl, seed, pt).Metrics
			out = append(out, stats.Coverage(base["fetch_stall_cycles"], base["instructions"],
				cell.Metrics["fetch_stall_cycles"], cell.Metrics["instructions"]))
		case MetricRecovery:
			base := idx.baseline(spec, wl, seed, pt)
			ref := idx[cellKey{c.Reference, wl, seed, pt}]
			out = append(out, recovery(base, cell, ref))
		default:
			v, ok := cell.Metrics[metric]
			if !ok {
				return nil, false
			}
			out = append(out, v)
		}
	}
	return out, true
}

func (idx cellIndex) baseline(spec *Spec, wl string, seed uint64, pt Point) *Cell {
	return idx[cellKey{spec.Baseline, wl, seed, pt}]
}

func speedup(base, cand *Cell) float64 {
	return stats.Speedup(base.Metrics["ipc"], cand.Metrics["ipc"])
}

// recovery is the fraction of the reference scheme's speedup the candidate
// achieves: (speedup-1)/(speedup_ref-1), zero when the reference shows no
// speedup to recover.
func recovery(base, cand, ref *Cell) float64 {
	refGain := speedup(base, ref) - 1
	if refGain <= 0 {
		return 0
	}
	return (speedup(base, cand) - 1) / refGain
}

// evaluateCriterion judges one criterion across its (workload, point)
// rows. A direct metric absent from the judged scheme's cells is an
// ErrUnknownMetric — a criterion that cannot observe its metric must fail
// loudly, not pass vacuously.
func evaluateCriterion(spec *Spec, c Criterion, points []Point, idx cellIndex) (CriterionResult, error) {
	workloads := spec.Workloads
	if c.Workload != "" {
		workloads = []string{c.Workload}
	}
	cr := CriterionResult{Criterion: c, Verdict: VerdictPass}
	for _, pt := range points {
		for _, wl := range workloads {
			sample, ok := idx.sample(spec, c.Metric, c, wl, pt)
			if !ok {
				return CriterionResult{}, fmt.Errorf(
					"%w: criterion %q: %q not present in %s's results",
					ErrUnknownMetric, c.Name, c.Metric, c.Scheme)
			}
			sum := statkit.Summarize(sample)
			verdict, detail := judge(c, sum)
			cr.Rows = append(cr.Rows, CriterionRow{
				Workload: wl,
				Params:   pointRef(pt),
				Observed: sum,
				Verdict:  verdict,
				Detail:   detail,
			})
			cr.Verdict = worseVerdict(cr.Verdict, verdict)
		}
	}
	return cr, nil
}

// judge applies the criterion's comparison semantics to one summary.
//
// Point comparison judges the sample mean alone. CI-aware comparison
// demands statistical separation: PASS only when the entire 95% interval
// satisfies the comparison, FAIL only when the entire interval violates
// it, INCONCLUSIVE when the interval straddles the threshold — or when
// fewer than two seeds ran, since a single observation carries no variance
// estimate at all.
func judge(c Criterion, s statkit.Summary) (verdict, detail string) {
	cmp := func(v float64) bool {
		switch c.Op {
		case ">=":
			return v >= c.Threshold
		case ">":
			return v > c.Threshold
		case "<=":
			return v <= c.Threshold
		case "<":
			return v < c.Threshold
		}
		return false
	}
	switch c.Compare {
	case CompareCI:
		detail = fmt.Sprintf("mean %.4g (95%% CI [%.4g, %.4g], n=%d) %s %.4g",
			s.Mean, s.CI95Lo, s.CI95Hi, s.N, c.Op, c.Threshold)
		if s.N < 2 {
			return VerdictInconclusive, detail + " — fewer than 2 seeds, no variance estimate"
		}
		lo, hi := cmp(s.CI95Lo), cmp(s.CI95Hi)
		switch {
		case lo && hi:
			return VerdictPass, detail
		case !lo && !hi:
			return VerdictFail, detail
		default:
			return VerdictInconclusive, detail + " — interval straddles the threshold"
		}
	default: // point
		detail = fmt.Sprintf("mean %.4g (n=%d) %s %.4g", s.Mean, s.N, c.Op, c.Threshold)
		if cmp(s.Mean) {
			return VerdictPass, detail
		}
		return VerdictFail, detail
	}
}

// Render writes the human-readable report: header, one mean±CI table per
// aggregated metric (rows schemes, columns workloads, plus the mean over
// workloads when there are several, the form the paper states its averages
// in), then every criterion with its per-row verdicts and the overall
// verdict.
func (r *Report) Render(w io.Writer) {
	avgCol := len(r.Header.Workloads) > 1
	fmt.Fprintf(w, "Experiment: %s\n", r.Header.Name)
	fmt.Fprintf(w, "Hypothesis: %s\n", r.Header.Hypothesis)
	fmt.Fprintf(w, "Spec:       sha256:%s\n", r.Header.SpecDigest)
	if r.Header.GeneratedAt != "" {
		fmt.Fprintf(w, "Generated:  %s\n", r.Header.GeneratedAt)
	}
	fmt.Fprintf(w, "Ran:        %d cells — %d schemes x %d workloads x %d seeds (baseline %s)\n",
		r.Header.Cells, len(r.Header.Schemes), len(r.Header.Workloads),
		len(r.Header.Seeds), r.Header.Baseline)

	// Group aggregates by point, preserving report order.
	type group struct {
		label string
		aggs  []Aggregate
	}
	var groups []group
	byLabel := map[string]int{}
	for _, a := range r.Aggregates {
		label := "defaults"
		if a.Params != nil {
			label = a.Params.String()
		}
		gi, ok := byLabel[label]
		if !ok {
			gi = len(groups)
			byLabel[label] = gi
			groups = append(groups, group{label: label})
		}
		groups[gi].aggs = append(groups[gi].aggs, a)
	}

	for _, g := range groups {
		// Metric set for this group, sorted for stable output.
		metricSet := map[string]bool{}
		for _, a := range g.aggs {
			for m := range a.Metrics {
				metricSet[m] = true
			}
		}
		metricNames := make([]string, 0, len(metricSet))
		for m := range metricSet {
			metricNames = append(metricNames, m)
		}
		sort.Strings(metricNames)

		if len(groups) > 1 {
			fmt.Fprintf(w, "\n== parameters: %s ==\n", g.label)
		}
		for _, m := range metricNames {
			fmt.Fprintf(w, "\n%s (mean ± 95%% CI over %d seeds)\n", m, len(r.Header.Seeds))
			fmt.Fprintf(w, "  %-22s", "SCHEME")
			for _, wl := range r.Header.Workloads {
				fmt.Fprintf(w, " %20s", wl)
			}
			if avgCol {
				fmt.Fprintf(w, " %20s", "WORKLOAD AVG")
			}
			fmt.Fprintln(w)
			for _, scheme := range r.Header.Schemes {
				cells := make([]string, 0, len(r.Header.Workloads))
				var sum float64
				n := 0
				for _, wl := range r.Header.Workloads {
					cell := ""
					for _, a := range g.aggs {
						if a.Scheme == scheme && a.Workload == wl {
							if s, ok := a.Metrics[m]; ok {
								cell = fmt.Sprintf("%.4f ±%.4f", s.Mean, s.CI95Hi-s.Mean)
								sum += s.Mean
								n++
							}
						}
					}
					cells = append(cells, cell)
				}
				if n == 0 {
					continue
				}
				fmt.Fprintf(w, "  %-22s", scheme)
				for _, cell := range cells {
					fmt.Fprintf(w, " %20s", cell)
				}
				if avgCol && n == len(cells) {
					fmt.Fprintf(w, " %20.4f", sum/float64(n))
				}
				fmt.Fprintln(w)
			}
		}
	}

	fmt.Fprintf(w, "\nCriteria:\n")
	for _, cr := range r.Criteria {
		c := cr.Criterion
		what := fmt.Sprintf("%s(%s)", c.Metric, c.Scheme)
		if c.Reference != "" {
			what = fmt.Sprintf("%s(%s vs %s)", c.Metric, c.Scheme, c.Reference)
		}
		compare := c.Compare
		if compare == "" {
			compare = ComparePoint
		}
		fmt.Fprintf(w, "  [%s] %s: %s %s %g (%s)\n", cr.Verdict, c.Name, what, c.Op, c.Threshold, compare)
		for _, row := range cr.Rows {
			where := row.Workload
			if row.Params != nil {
				where += " @ " + row.Params.String()
			}
			fmt.Fprintf(w, "      %-30s %s: %s\n", where, row.Verdict, row.Detail)
		}
	}
	fmt.Fprintf(w, "\nVerdict: %s\n", r.Verdict)
}
