package boomsim_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"boomsim"
)

const experimentsDir = "testdata/experiments"

// specPaths lists the checked-in experiment specs (the paper's own claims,
// encoded as machine-checked hypotheses).
func specPaths(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(experimentsDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no experiment specs under %s", experimentsDir)
	}
	return paths
}

// Every checked-in spec must load, validate, and re-marshal to exactly the
// bytes on disk: the files are the canonical encoding, so a spec diff in
// review is always a semantic diff, never a formatting one. Regenerate
// after editing a spec by hand with:
//
//	go test -run TestExperimentSpecRoundTrip -update .
func TestExperimentSpecRoundTrip(t *testing.T) {
	for _, path := range specPaths(t) {
		t.Run(filepath.Base(path), func(t *testing.T) {
			spec, err := boomsim.LoadExperimentSpec(path)
			if err != nil {
				t.Fatalf("LoadExperimentSpec: %v", err)
			}
			want := strings.TrimSuffix(filepath.Base(path), ".json")
			if spec.Name != want {
				t.Errorf("spec name %q does not match file name %q", spec.Name, want)
			}
			canonical, err := spec.MarshalIndent()
			if err != nil {
				t.Fatalf("MarshalIndent: %v", err)
			}
			onDisk, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(canonical) == string(onDisk) {
				return
			}
			if *updateGolden {
				if err := os.WriteFile(path, canonical, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s in canonical encoding", path)
				return
			}
			t.Errorf("%s is not in canonical encoding; run: go test -run TestExperimentSpecRoundTrip -update .", path)
		})
	}
}

// The invalid corpus pins the spec loader's rejection behavior: every file
// fails to load, and with the advertised typed sentinel, so authoring
// mistakes surface as actionable errors rather than quietly weakened
// experiments.
func TestExperimentSpecInvalidCorpus(t *testing.T) {
	wantErr := map[string]error{
		"unknown-scheme.json":            boomsim.ErrUnknownScheme,
		"unknown-workload.json":          boomsim.ErrUnknownWorkload,
		"unknown-metric.json":            boomsim.ErrUnknownMetric,
		"empty-seeds.json":               boomsim.ErrInvalidSpec,
		"unknown-field.json":             boomsim.ErrInvalidSpec,
		"criterion-on-unrun-scheme.json": boomsim.ErrInvalidSpec,
	}
	paths, err := filepath.Glob(filepath.Join(experimentsDir, "invalid", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(wantErr) {
		t.Fatalf("invalid corpus has %d files, wantErr covers %d — keep them in sync", len(paths), len(wantErr))
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			want, ok := wantErr[filepath.Base(path)]
			if !ok {
				t.Fatalf("no expected error registered for %s", path)
			}
			_, err := boomsim.LoadExperimentSpec(path)
			if err == nil {
				t.Fatalf("LoadExperimentSpec accepted an invalid spec")
			}
			if !errors.Is(err, want) {
				t.Fatalf("error = %v, want errors.Is(err, %v)", err, want)
			}
		})
	}
}

// experimentReportJSON runs one spec and returns the report's canonical
// JSON bytes.
func experimentReportJSON(t *testing.T, spec boomsim.ExperimentSpec, opts ...boomsim.MatrixOption) []byte {
	t.Helper()
	report, err := boomsim.RunExperiment(context.Background(), spec, opts...)
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// A report is a pure function of its spec: sequential, parallel, and
// distributed execution of the same experiment must produce byte-identical
// JSON. This is what makes a verdict trustworthy — it cannot depend on
// where or how the matrix happened to be scheduled.
func TestExperimentReportDeterminism(t *testing.T) {
	spec, err := boomsim.LoadExperimentSpec(filepath.Join(experimentsDir, "table3-storage.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Scheduling, not statistics, is under test: a short window keeps the
	// three runs of the 81-cell matrix cheap.
	spec.Window = &boomsim.ExperimentWindow{Warm: 2000, Measure: 10000}

	sequential := experimentReportJSON(t, spec, boomsim.WithParallelism(1))
	parallel := experimentReportJSON(t, spec, boomsim.WithParallelism(8))
	if string(sequential) != string(parallel) {
		t.Errorf("parallelism 1 vs 8: reports differ")
	}

	workers := startWorkers(t, 2)
	cl, err := boomsim.NewCluster(boomsim.WithEndpoints(endpoints(workers)...))
	if err != nil {
		t.Fatal(err)
	}
	distributed := experimentReportJSON(t, spec, boomsim.WithCluster(cl))
	if string(sequential) != string(distributed) {
		t.Errorf("local vs 2-worker cluster: reports differ")
	}
}

// tinyExperiment is a 4-cell spec for tests that exercise report plumbing
// rather than statistics.
func tinyExperiment() boomsim.ExperimentSpec {
	return boomsim.ExperimentSpec{
		Version:    1,
		Name:       "tiny",
		Hypothesis: "plumbing probe",
		Baseline:   "Base",
		Candidates: []string{"Boomerang"},
		Workloads:  []string{"Apache"},
		Seeds:      []uint64{1, 2},
		Window:     &boomsim.ExperimentWindow{Warm: 2000, Measure: 10000},
		Criteria: []boomsim.ExperimentCriterion{{
			Name:      "positive-speedup",
			Metric:    "speedup",
			Scheme:    "Boomerang",
			Op:        ">=",
			Threshold: 0.5,
			Compare:   "point",
		}},
	}
}

// GeneratedAt is the one field of a report that is not a function of the
// spec, so RunExperiment leaves it to the caller: a report carries no
// generated_at key, and two runs of one spec are byte-identical.
func TestExperimentTimestampIsolation(t *testing.T) {
	spec := tinyExperiment()
	a := experimentReportJSON(t, spec)
	b := experimentReportJSON(t, spec)
	if string(a) != string(b) {
		t.Errorf("two runs of one spec differ")
	}
	if strings.Contains(string(a), "generated_at") {
		t.Errorf("RunExperiment stamped the report:\n%s", a)
	}
}

// The experiment engine's coverage metric must agree exactly with the
// public Coverage helper (and therefore with the figures pipeline): both
// are the paper's stalls-per-instruction formula with the same guard
// against noise-amplified baselines. A single-seed aggregate is the raw
// per-cell value, so the comparison needs no statistics.
func TestExperimentCoverageMatchesSimulator(t *testing.T) {
	const (
		seed    = uint64(7)
		warm    = uint64(2000)
		measure = uint64(10000)
	)
	spec := tinyExperiment()
	spec.Seeds = []uint64{seed}
	spec.Window = &boomsim.ExperimentWindow{Warm: warm, Measure: measure}

	report, err := boomsim.RunExperiment(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	found := false
	for _, agg := range report.Aggregates {
		if agg.Scheme == "Boomerang" && agg.Workload == "Apache" {
			if s, ok := agg.Metrics["coverage"]; ok {
				got, found = s.Mean, true
			}
		}
	}
	if !found {
		t.Fatal("report has no coverage aggregate for Boomerang on Apache")
	}

	run := func(scheme string) boomsim.Result {
		s, err := boomsim.New(
			boomsim.WithScheme(scheme),
			boomsim.WithWorkload("Apache"),
			boomsim.WithSeeds(seed, seed),
			boomsim.WithWindow(warm, measure),
		)
		if err != nil {
			t.Fatalf("New(%s): %v", scheme, err)
		}
		r, err := s.Run(context.Background())
		if err != nil {
			t.Fatalf("Run(%s): %v", scheme, err)
		}
		return r
	}
	want := boomsim.Coverage(run("Base"), run("Boomerang"))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("experiment coverage = %v, boomsim.Coverage = %v", got, want)
	}
}

// The one-run ratio metrics the ported figure tables read (traffic per
// kilo-instruction, stall-class shares) must equal the same ratios taken
// from the Result of an identical standalone run.
func TestExperimentRatioMetrics(t *testing.T) {
	const seed = uint64(7)
	spec := tinyExperiment()
	spec.Seeds = []uint64{seed}
	spec.Metrics = []string{
		"prefetches_per_ki", "llc_accesses_per_ki", "useless_prefetches_per_ki",
		"stall_share_sequential", "stall_share_conditional", "stall_share_unconditional",
	}
	report, err := boomsim.RunExperiment(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]float64
	for _, agg := range report.Aggregates {
		if agg.Scheme == "Boomerang" && agg.Workload == "Apache" {
			got = map[string]float64{}
			for name, s := range agg.Metrics {
				got[name] = s.Mean
			}
		}
	}
	if got == nil {
		t.Fatal("report has no Boomerang/Apache aggregate")
	}

	s, err := boomsim.New(boomsim.WithScheme("Boomerang"), boomsim.WithWorkload("Apache"),
		boomsim.WithSeeds(seed, seed), boomsim.WithWindow(spec.Window.Warm, spec.Window.Measure))
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ki := float64(r.Instructions) / 1000
	stalls := float64(r.FetchStallCycles)
	if r.Prefetches == 0 || stalls == 0 {
		t.Fatalf("degenerate run: %d prefetches, %v stall cycles", r.Prefetches, stalls)
	}
	want := map[string]float64{
		"prefetches_per_ki":         float64(r.Prefetches) / ki,
		"llc_accesses_per_ki":       float64(r.LLCAccesses) / ki,
		"useless_prefetches_per_ki": r.Stats["cache.useless_prefetches"] / ki,
		"stall_share_sequential":    float64(r.StallCycles.Sequential) / stalls,
		"stall_share_conditional":   float64(r.StallCycles.Conditional) / stalls,
		"stall_share_unconditional": float64(r.StallCycles.Unconditional) / stalls,
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || math.Abs(g-w) > 1e-12 {
			t.Errorf("%s = %v (present %v), want %v", name, g, ok, w)
		}
	}
	// The ratios live in experiment cells only; Result JSON is unchanged.
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for name := range want {
		if strings.Contains(string(data), `"`+name+`"`) {
			t.Errorf("Result JSON carries experiment-only metric %s", name)
		}
	}
}

// Smoke-run two checked-in paper claims end to end and
// require their verdicts to hold. The full set runs in the dedicated CI
// experiment job via boomctl; this keeps `go test ./...` self-contained.
func TestExperimentPaperClaimsSmoke(t *testing.T) {
	for _, name := range []string{"table3-storage.json", "fig8-coverage.json"} {
		t.Run(name, func(t *testing.T) {
			spec, err := boomsim.LoadExperimentSpec(filepath.Join(experimentsDir, name))
			if err != nil {
				t.Fatal(err)
			}
			report, err := boomsim.RunExperiment(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if report.Verdict != boomsim.VerdictPass {
				t.Errorf("verdict = %s, want %s", report.Verdict, boomsim.VerdictPass)
				for _, cr := range report.Criteria {
					t.Logf("  [%s] %s", cr.Verdict, cr.Criterion.Name)
				}
			}
		})
	}
}
