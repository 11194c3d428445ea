package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// testEnv resolves a fixed toy registry: two schemes, two workloads, a
// couple of headline metrics, and inline configs named by their "name"
// field.
func testEnv() Env {
	schemes := map[string]bool{"Base": true, "Cand": true, "Ref": true}
	workloads := map[string]bool{"W1": true, "W2": true}
	metrics := map[string]bool{"ipc": true, "instructions": true, "fetch_stall_cycles": true, "storage_overhead_kb": true}
	return Env{
		HasScheme:   func(n string) bool { return schemes[n] },
		HasWorkload: func(n string) bool { return workloads[n] },
		HasMetric:   func(n string) bool { return metrics[n] },
		SchemeConfigName: func(raw json.RawMessage) (string, error) {
			var v struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal(raw, &v); err != nil || v.Name == "" {
				return "", errors.New("bad inline config")
			}
			return v.Name, nil
		},
	}
}

func validSpec() Spec {
	return Spec{
		Version:    SpecVersion,
		Name:       "toy",
		Hypothesis: "Cand beats Base",
		Baseline:   "Base",
		Candidates: []string{"Cand"},
		Workloads:  []string{"W1"},
		Seeds:      []uint64{1, 2, 3},
		Criteria: []Criterion{{
			Name: "c1", Metric: MetricSpeedup, Scheme: "Cand",
			Op: ">=", Threshold: 1.1, Compare: CompareCI,
		}},
	}
}

func TestValidateRejections(t *testing.T) {
	env := testEnv()
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr error
	}{
		{"valid", func(s *Spec) {}, nil},
		{"bad version", func(s *Spec) { s.Version = 99 }, ErrInvalidSpec},
		{"no name", func(s *Spec) { s.Name = "" }, ErrInvalidSpec},
		{"no hypothesis", func(s *Spec) { s.Hypothesis = "" }, ErrInvalidSpec},
		{"no baseline", func(s *Spec) { s.Baseline = "" }, ErrInvalidSpec},
		{"unknown baseline", func(s *Spec) { s.Baseline = "Nope" }, ErrUnknownScheme},
		{"unknown candidate", func(s *Spec) { s.Candidates = []string{"Nope"} }, ErrUnknownScheme},
		{"no candidates", func(s *Spec) { s.Candidates = nil }, ErrInvalidSpec},
		{"dup scheme", func(s *Spec) { s.Candidates = []string{"Cand", "Cand"} }, ErrInvalidSpec},
		{"baseline as candidate", func(s *Spec) { s.Candidates = []string{"Base"} }, ErrInvalidSpec},
		{"no workloads", func(s *Spec) { s.Workloads = nil }, ErrInvalidSpec},
		{"unknown workload", func(s *Spec) { s.Workloads = []string{"W9"} }, ErrUnknownWorkload},
		{"dup workload", func(s *Spec) { s.Workloads = []string{"W1", "W1"} }, ErrInvalidSpec},
		{"empty seeds", func(s *Spec) { s.Seeds = nil }, ErrInvalidSpec},
		{"dup seeds", func(s *Spec) { s.Seeds = []uint64{1, 1} }, ErrInvalidSpec},
		{"no criteria", func(s *Spec) { s.Criteria = nil }, ErrInvalidSpec},
		{"zero window", func(s *Spec) { s.Window = &Window{Warm: 10, Measure: 0} }, ErrInvalidSpec},
		{"bogus metric", func(s *Spec) { s.Criteria[0].Metric = "no_such_metric" }, ErrUnknownMetric},
		{"bogus extra metric", func(s *Spec) { s.Metrics = []string{"nope"} }, ErrUnknownMetric},
		{"criterion scheme not run", func(s *Spec) { s.Criteria[0].Scheme = "Ref" }, ErrInvalidSpec},
		{"derived on baseline", func(s *Spec) { s.Criteria[0].Scheme = "Base" }, ErrInvalidSpec},
		{"criterion workload not run", func(s *Spec) { s.Criteria[0].Workload = "W2" }, ErrInvalidSpec},
		{"bad op", func(s *Spec) { s.Criteria[0].Op = "==" }, ErrInvalidSpec},
		{"bad compare", func(s *Spec) { s.Criteria[0].Compare = "fuzzy" }, ErrInvalidSpec},
		{"dup criterion name", func(s *Spec) { s.Criteria = append(s.Criteria, s.Criteria[0]) }, ErrInvalidSpec},
		{"recovery without reference", func(s *Spec) {
			s.Criteria[0].Metric = MetricRecovery
		}, ErrInvalidSpec},
		{"recovery reference not run", func(s *Spec) {
			s.Criteria[0].Metric = MetricRecovery
			s.Criteria[0].Reference = "Ref"
		}, ErrInvalidSpec},
		{"reference on non-recovery", func(s *Spec) { s.Criteria[0].Reference = "Base" }, ErrInvalidSpec},
		{"bad matrix predictor", func(s *Spec) { s.Matrix = &Matrix{Predictor: []string{"oracle"}} }, ErrInvalidSpec},
		{"bad matrix btb", func(s *Spec) { s.Matrix = &Matrix{BTBEntries: []int{-1}} }, ErrInvalidSpec},
		{"bad inline config", func(s *Spec) { s.SchemeConfigs = []json.RawMessage{[]byte(`{"no":"name"}`)} }, ErrInvalidSpec},
		{"inline config name collision", func(s *Spec) {
			s.SchemeConfigs = []json.RawMessage{[]byte(`{"name":"Cand"}`)}
		}, ErrInvalidSpec},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := validSpec()
			c.mutate(&s)
			err := s.Validate(env)
			if c.wantErr == nil {
				if err != nil {
					t.Fatalf("Validate: %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, c.wantErr) {
				t.Fatalf("Validate = %v, want errors.Is(%v)", err, c.wantErr)
			}
		})
	}
}

// TestParseSpecRejectsUnknownFields: typos must not silently weaken an
// experiment.
func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec([]byte(`{"version":1,"name":"x","hypothesis":"h","baselin":"Base"}`))
	if !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("ParseSpec with typo field = %v, want ErrInvalidSpec", err)
	}
}

func TestMatrixPoints(t *testing.T) {
	if got := (*Matrix)(nil).Points(); len(got) != 1 || !got[0].IsZero() {
		t.Fatalf("nil matrix points = %v, want one zero point", got)
	}
	m := &Matrix{LLCLatency: []int{18, 30}, Predictor: []string{"tage", "bimodal"}}
	got := m.Points()
	want := []Point{
		{LLCLatency: 18, Predictor: "tage"},
		{LLCLatency: 18, Predictor: "bimodal"},
		{LLCLatency: 30, Predictor: "tage"},
		{LLCLatency: 30, Predictor: "bimodal"},
	}
	if len(got) != len(want) {
		t.Fatalf("points = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("points[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// buildCells synthesizes a full cell set for the toy spec: baseline IPC 1.0,
// candidate IPC per seed from ipcs, reference IPC 1.5 everywhere.
func buildCells(spec *Spec, schemes []string, ipc func(scheme string, wl string, seed uint64) float64) []Cell {
	var cells []Cell
	for _, pt := range spec.Matrix.Points() {
		for _, s := range schemes {
			for _, wl := range spec.Workloads {
				for _, seed := range spec.Seeds {
					cells = append(cells, Cell{
						Scheme: s, Workload: wl, Seed: seed, Point: pt,
						Metrics: map[string]float64{
							"ipc":                 ipc(s, wl, seed),
							"instructions":        1000,
							"fetch_stall_cycles":  100,
							"stall_fraction":      0.1,
							"l1i_misses_per_ki":   5,
							"btb_miss_rate":       0.01,
							"storage_overhead_kb": 0.5,
						},
					})
				}
			}
		}
	}
	return cells
}

func TestBuildReportVerdicts(t *testing.T) {
	spec := validSpec()
	schemes := []string{"Base", "Cand"}

	// Candidate IPCs 1.21/1.26/1.31 over baseline 1.0: mean speedup 1.26,
	// CI95 half-width 4.3027 * 0.05/sqrt(3) = 0.1242...; CI = [1.1358, 1.3842].
	ipc := func(s, wl string, seed uint64) float64 {
		if s != "Cand" {
			return 1.0
		}
		return 1.26 + 0.05*(float64(seed)-2)
	}

	run := func(t *testing.T, c Criterion) *Report {
		t.Helper()
		s := spec
		s.Criteria = []Criterion{c}
		rep, err := BuildReport(&s, schemes, buildCells(&s, schemes, ipc))
		if err != nil {
			t.Fatalf("BuildReport: %v", err)
		}
		return rep
	}

	ci := func(op string, threshold float64) Criterion {
		return Criterion{Name: "c", Metric: MetricSpeedup, Scheme: "Cand", Op: op, Threshold: threshold, Compare: CompareCI}
	}

	cases := []struct {
		name    string
		c       Criterion
		verdict string
	}{
		{"ci pass", ci(">=", 1.10), VerdictPass},
		{"ci straddle", ci(">=", 1.26), VerdictInconclusive},
		{"ci fail", ci(">=", 1.40), VerdictFail},
		{"ci pass below", ci("<=", 1.40), VerdictPass},
		{"ci fail below", ci("<", 1.10), VerdictFail},
		{"point pass", Criterion{Name: "c", Metric: MetricSpeedup, Scheme: "Cand", Op: ">=", Threshold: 1.25}, VerdictPass},
		{"point fail", Criterion{Name: "c", Metric: MetricSpeedup, Scheme: "Cand", Op: ">=", Threshold: 1.27}, VerdictFail},
		{"direct metric", Criterion{Name: "c", Metric: "storage_overhead_kb", Scheme: "Cand", Op: "<=", Threshold: 1}, VerdictPass},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := run(t, tc.c)
			if rep.Verdict != tc.verdict {
				t.Fatalf("verdict = %s, want %s (%+v)", rep.Verdict, tc.verdict, rep.Criteria[0].Rows)
			}
		})
	}

	// Single-seed CI comparison must be inconclusive, not vacuously green.
	t.Run("single seed ci inconclusive", func(t *testing.T) {
		s := spec
		s.Seeds = []uint64{1}
		rep, err := BuildReport(&s, schemes, buildCells(&s, schemes, ipc))
		if err != nil {
			t.Fatalf("BuildReport: %v", err)
		}
		if rep.Verdict != VerdictInconclusive {
			t.Fatalf("verdict = %s, want INCONCLUSIVE for n=1 CI compare", rep.Verdict)
		}
	})
}

func TestBuildReportAggregates(t *testing.T) {
	spec := validSpec()
	spec.Workloads = []string{"W1", "W2"}
	schemes := []string{"Base", "Cand"}
	ipc := func(s, wl string, seed uint64) float64 {
		if s != "Cand" {
			return 1.0
		}
		if wl == "W2" {
			return 2.0
		}
		return 1.26 + 0.05*(float64(seed)-2)
	}
	rep, err := BuildReport(&spec, schemes, buildCells(&spec, schemes, ipc))
	if err != nil {
		t.Fatalf("BuildReport: %v", err)
	}

	// 2 schemes x 2 workloads at the default point.
	if len(rep.Aggregates) != 4 {
		t.Fatalf("aggregates = %d, want 4", len(rep.Aggregates))
	}
	find := func(scheme, wl string) Aggregate {
		for _, a := range rep.Aggregates {
			if a.Scheme == scheme && a.Workload == wl {
				return a
			}
		}
		t.Fatalf("no aggregate for %s/%s", scheme, wl)
		return Aggregate{}
	}
	sp := find("Cand", "W1").Metrics[MetricSpeedup]
	if sp.N != 3 || math.Abs(sp.Mean-1.26) > 1e-12 {
		t.Errorf("Cand/W1 speedup = %+v, want mean 1.26 over 3 seeds", sp)
	}
	if w2 := find("Cand", "W2").Metrics[MetricSpeedup]; w2.Mean != 2.0 || w2.StdErr != 0 {
		t.Errorf("Cand/W2 speedup = %+v, want exact 2.0", w2)
	}
	// Derived metrics must not appear for the baseline group.
	if _, ok := find("Base", "W1").Metrics[MetricSpeedup]; ok {
		t.Error("baseline aggregate carries a speedup metric")
	}
	// The criterion judges every workload when unrestricted.
	if rows := rep.Criteria[0].Rows; len(rows) != 2 {
		t.Fatalf("criterion rows = %d, want 2 (one per workload)", len(rows))
	}
	if rep.Header.SpecDigest == "" || len(rep.Header.SpecDigest) != 64 {
		t.Errorf("spec digest = %q, want 64 hex chars", rep.Header.SpecDigest)
	}
}

func TestBuildReportRecovery(t *testing.T) {
	spec := validSpec()
	spec.Candidates = []string{"Cand", "Ref"}
	spec.Criteria = []Criterion{{
		Name: "rec", Metric: MetricRecovery, Scheme: "Cand", Reference: "Ref",
		Op: ">=", Threshold: 0.5, Compare: ComparePoint,
	}}
	schemes := []string{"Base", "Cand", "Ref"}
	// Base 1.0, Ref 1.5, Cand 1.3: recovery = 0.3/0.5 = 0.6 exactly.
	ipc := func(s, wl string, seed uint64) float64 {
		switch s {
		case "Ref":
			return 1.5
		case "Cand":
			return 1.3
		}
		return 1.0
	}
	rep, err := BuildReport(&spec, schemes, buildCells(&spec, schemes, ipc))
	if err != nil {
		t.Fatalf("BuildReport: %v", err)
	}
	if rep.Verdict != VerdictPass {
		t.Fatalf("verdict = %s, want PASS", rep.Verdict)
	}
	got := rep.Criteria[0].Rows[0].Observed.Mean
	if math.Abs(got-0.6) > 1e-12 {
		t.Errorf("recovery mean = %v, want 0.6", got)
	}
}

func TestBuildReportErrors(t *testing.T) {
	spec := validSpec()
	schemes := []string{"Base", "Cand"}
	ipc := func(s, wl string, seed uint64) float64 { return 1.0 }
	cells := buildCells(&spec, schemes, ipc)

	t.Run("missing cell", func(t *testing.T) {
		_, err := BuildReport(&spec, schemes, cells[:len(cells)-1])
		if !errors.Is(err, ErrInvalidSpec) {
			t.Fatalf("BuildReport = %v, want ErrInvalidSpec", err)
		}
	})
	t.Run("duplicate cell", func(t *testing.T) {
		_, err := BuildReport(&spec, schemes, append(append([]Cell(nil), cells...), cells[0]))
		if !errors.Is(err, ErrInvalidSpec) {
			t.Fatalf("BuildReport = %v, want ErrInvalidSpec", err)
		}
	})
	t.Run("criterion on absent stat", func(t *testing.T) {
		s := spec
		s.Criteria = []Criterion{{Name: "c", Metric: "boomerang.probes", Scheme: "Cand", Op: ">=", Threshold: 1}}
		_, err := BuildReport(&s, schemes, buildCells(&s, schemes, ipc))
		if !errors.Is(err, ErrUnknownMetric) {
			t.Fatalf("BuildReport = %v, want ErrUnknownMetric", err)
		}
	})
}

// TestReportDeterministicJSON: two identical builds marshal to identical
// bytes — the property local-vs-distributed byte-identity rests on.
func TestReportDeterministicJSON(t *testing.T) {
	spec := validSpec()
	spec.Matrix = &Matrix{LLCLatency: []int{18, 30}}
	schemes := []string{"Base", "Cand"}
	ipc := func(s, wl string, seed uint64) float64 {
		if s == "Cand" {
			return 1.2 + 0.01*float64(seed)
		}
		return 1.0
	}
	marshal := func() []byte {
		rep, err := BuildReport(&spec, schemes, buildCells(&spec, schemes, ipc))
		if err != nil {
			t.Fatalf("BuildReport: %v", err)
		}
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := marshal(), marshal()
	if string(a) != string(b) {
		t.Fatal("identical builds marshaled differently")
	}
	// Matrix points appear as params on aggregates and criterion rows.
	if !strings.Contains(string(a), `"llc_latency": 18`) {
		t.Error("report JSON lacks the matrix point parameters")
	}
}

// TestRender smoke-tests the human report: every criterion name, verdict
// and workload must appear.
func TestRender(t *testing.T) {
	spec := validSpec()
	schemes := []string{"Base", "Cand"}
	ipc := func(s, wl string, seed uint64) float64 {
		if s == "Cand" {
			return 1.26 + 0.05*(float64(seed)-2)
		}
		return 1.0
	}
	rep, err := BuildReport(&spec, schemes, buildCells(&spec, schemes, ipc))
	if err != nil {
		t.Fatalf("BuildReport: %v", err)
	}
	var sb strings.Builder
	rep.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Experiment: toy", "Hypothesis:", "c1", "W1", "Verdict: PASS", "95% CI", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report lacks %q:\n%s", want, out)
		}
	}
}

// With several workloads every metric table gains a mean-over-workloads
// column; a one-workload report has nothing to average and keeps its shape.
func TestRenderWorkloadAverage(t *testing.T) {
	spec := validSpec()
	spec.Workloads = []string{"W1", "W2"}
	schemes := []string{"Base", "Cand"}
	ipc := func(s, wl string, seed uint64) float64 {
		switch {
		case s == "Base":
			return 1.0
		case wl == "W1":
			return 1.2
		}
		return 1.4
	}
	rep, err := BuildReport(&spec, schemes, buildCells(&spec, schemes, ipc))
	if err != nil {
		t.Fatalf("BuildReport: %v", err)
	}
	var sb strings.Builder
	rep.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "WORKLOAD AVG") {
		t.Fatalf("two-workload report lacks the average column:\n%s", out)
	}
	// Cand's speedup is 1.2 on W1 and 1.4 on W2.
	found := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "Cand") && strings.HasSuffix(line, "1.3000") {
			found = true
		}
	}
	if !found {
		t.Errorf("no Cand row ends in the 1.3000 workload average:\n%s", out)
	}

	one := validSpec()
	rep, err = BuildReport(&one, schemes, buildCells(&one, schemes, ipc))
	if err != nil {
		t.Fatalf("BuildReport: %v", err)
	}
	sb.Reset()
	rep.Render(&sb)
	if strings.Contains(sb.String(), "WORKLOAD AVG") {
		t.Errorf("one-workload report grew an average column:\n%s", sb.String())
	}
}

func TestPointString(t *testing.T) {
	if got := (Point{}).String(); got != "defaults" {
		t.Errorf("zero point = %q", got)
	}
	p := Point{BTBEntries: 4096, LLCLatency: 18, Predictor: "tage"}
	if got := p.String(); got != "btb=4096 llc=18 predictor=tage" {
		t.Errorf("point = %q", got)
	}
	_ = fmt.Sprintf("%v", p)
}
