package boomsim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"boomsim/internal/exp"
)

// ExperimentSpec is a declarative, versioned experiment definition: a
// hypothesis, a baseline scheme, candidate schemes (registry names or
// inline SchemeConfig JSON), a workload set, a seed list for replication, an
// optional parameter matrix, and machine-checked success criteria. Specs
// round-trip through JSON byte-identically (the checked-in paper claims
// under testdata/experiments/ are the worked examples; EXPERIMENTS.md is
// the authoring guide).
type ExperimentSpec = exp.Spec

// ExperimentCriterion is one machine-checked success condition of an
// ExperimentSpec: a threshold comparison on a derived metric (speedup,
// coverage, recovery), a headline Result field, or a dotted per-component
// registry statistic — judged on the sample mean ("point") or with
// CI-aware semantics ("ci").
type ExperimentCriterion = exp.Criterion

// ExperimentMatrix is an ExperimentSpec's optional parameter axes (BTB
// entries, LLC latency, footprint, predictor); their cross product
// multiplies the scheme x workload x seed sweep.
type ExperimentMatrix = exp.Matrix

// ExperimentWindow is an ExperimentSpec's measurement-methodology override.
type ExperimentWindow = exp.Window

// ExperimentReport is a finished experiment: aggregated metrics with
// mean/stderr/95% confidence intervals across seeds, one verdict per
// criterion, and the overall PASS/FAIL/INCONCLUSIVE outcome. Reports are
// deterministic plain data — byte-identical across parallelism levels and
// local/distributed execution. RunExperiment leaves Header.GeneratedAt,
// the report's one timestamp, empty for the caller to stamp.
type ExperimentReport = exp.Report

// Experiment verdict values, from best to worst: every criterion's
// interval satisfied the comparison; some interval straddled its threshold
// (or too few seeds ran to estimate variance); some criterion's evidence
// contradicted it.
const (
	VerdictPass         = exp.VerdictPass
	VerdictInconclusive = exp.VerdictInconclusive
	VerdictFail         = exp.VerdictFail
)

// experimentEnv adapts the public registries to the experiment engine's
// validation hooks.
func experimentEnv() exp.Env {
	return exp.Env{
		HasScheme: func(name string) bool {
			_, err := schemeByName(name)
			return err == nil
		},
		HasWorkload: func(name string) bool {
			_, err := workloadByName(name)
			return err == nil
		},
		HasMetric: func(name string) bool {
			return headlineMetricNames()[name]
		},
		SchemeConfigName: func(raw json.RawMessage) (string, error) {
			cfg, err := ParseSchemeConfig(raw)
			if err != nil {
				return "", err
			}
			return cfg.Name, nil
		},
	}
}

// headlineMetricNames is the set of dotless metric names an experiment can
// reference: exactly the headline fields and ratios flattenResult produces.
// Deriving the set from the same function that builds cell metrics keeps
// validation and evaluation incapable of disagreeing.
var headlineMetricNames = sync.OnceValue(func() map[string]bool {
	set := map[string]bool{}
	for name := range flattenResult(Result{}) {
		set[name] = true
	}
	return set
})

// flattenResult projects one Result onto the experiment engine's flat
// metric map: every headline scalar under its JSON field name, the stall
// class counts under stall_cycles_* names, and the full per-component
// registry under its dotted names. It also derives the one-run ratios the
// paper's tables read: traffic per kilo-instruction and each stall class's
// share of the run's own stall cycles. Those exist only here, in experiment
// cells, never in Result JSON.
func flattenResult(r Result) map[string]float64 {
	perKI := func(v float64) float64 {
		if r.Instructions == 0 {
			return 0
		}
		return v * 1000 / float64(r.Instructions)
	}
	share := func(v uint64) float64 {
		if r.FetchStallCycles == 0 {
			return 0
		}
		return float64(v) / float64(r.FetchStallCycles)
	}
	m := map[string]float64{
		"ipc":                        r.IPC,
		"instructions":               float64(r.Instructions),
		"cycles":                     float64(r.Cycles),
		"fetch_stall_cycles":         float64(r.FetchStallCycles),
		"stall_fraction":             r.StallFraction,
		"stall_cycles_sequential":    float64(r.StallCycles.Sequential),
		"stall_cycles_conditional":   float64(r.StallCycles.Conditional),
		"stall_cycles_unconditional": float64(r.StallCycles.Unconditional),
		"mispredict_squashes_per_ki": r.MispredictSquashesPerKI,
		"btb_miss_squashes_per_ki":   r.BTBMissSquashesPerKI,
		"btb_lookups":                float64(r.BTBLookups),
		"btb_misses":                 float64(r.BTBMisses),
		"btb_miss_rate":              r.BTBMissRate,
		"l1i_misses_per_ki":          r.L1IMissesPerKI,
		"prefetches":                 float64(r.Prefetches),
		"llc_accesses":               float64(r.LLCAccesses),
		"llc_misses":                 float64(r.LLCMisses),
		"predecoded_lines":           float64(r.PredecodedLines),
		"prefetch_meta_bytes":        float64(r.PrefetchMetaBytes),
		"storage_overhead_kb":        r.StorageOverheadKB,

		"prefetches_per_ki":         perKI(float64(r.Prefetches)),
		"llc_accesses_per_ki":       perKI(float64(r.LLCAccesses)),
		"useless_prefetches_per_ki": perKI(r.Stats["cache.useless_prefetches"]),
		"stall_share_sequential":    share(r.StallCycles.Sequential),
		"stall_share_conditional":   share(r.StallCycles.Conditional),
		"stall_share_unconditional": share(r.StallCycles.Unconditional),
	}
	for name, v := range r.Stats {
		m[name] = v
	}
	return m
}

// ParseExperimentSpec decodes and validates one JSON experiment spec.
// Unknown fields are rejected so typos surface instead of silently
// weakening an experiment; validation failures carry the typed sentinels
// (ErrInvalidSpec, ErrUnknownScheme, ErrUnknownWorkload, ErrUnknownMetric).
func ParseExperimentSpec(data []byte) (ExperimentSpec, error) {
	spec, err := exp.ParseSpec(data)
	if err != nil {
		return ExperimentSpec{}, mapExpError(err)
	}
	if err := spec.Validate(experimentEnv()); err != nil {
		return ExperimentSpec{}, mapExpError(err)
	}
	return spec, nil
}

// LoadExperimentSpec reads and validates a JSON experiment spec file (see
// EXPERIMENTS.md for the authoring guide and testdata/experiments/ for the
// paper's own claims as worked examples).
func LoadExperimentSpec(path string) (ExperimentSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ExperimentSpec{}, fmt.Errorf("reading experiment spec: %w", err)
	}
	spec, err := ParseExperimentSpec(data)
	if err != nil {
		return ExperimentSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// mapExpError rewraps the experiment engine's typed errors in the public
// sentinels so callers only ever match boomsim errors.
func mapExpError(err error) error {
	for _, m := range []struct{ from, to error }{
		{exp.ErrUnknownScheme, ErrUnknownScheme},
		{exp.ErrUnknownWorkload, ErrUnknownWorkload},
		{exp.ErrUnknownMetric, ErrUnknownMetric},
		{exp.ErrInvalidSpec, ErrInvalidSpec},
	} {
		if errors.Is(err, m.from) {
			return fmt.Errorf("%w%s", m.to, trimPrefix(err.Error(), m.from.Error()))
		}
	}
	return err
}

// trimPrefix drops the engine sentinel's own text from the detail message
// so the public error reads "boomsim: invalid experiment spec: <detail>"
// rather than repeating the internal prefix.
func trimPrefix(msg, prefix string) string {
	if len(msg) >= len(prefix) && msg[:len(prefix)] == prefix {
		return msg[len(prefix):]
	}
	return ": " + msg
}

// RunExperiment executes one declarative experiment end to end: validate
// the spec, expand it to its simulation matrix (schemes x workloads x
// seeds x parameter points, baseline included), run the matrix with
// RunMatrix and opts (WithParallelism, WithCluster, ...), aggregate every
// metric across seeds into mean/stderr/95% CI, judge each criterion, and
// return the self-contained report. The report is a pure function of the
// spec: byte-identical for every option, with Header.GeneratedAt left
// empty. Cancellation semantics match RunMatrix (ErrCanceled).
func RunExperiment(ctx context.Context, spec ExperimentSpec, opts ...MatrixOption) (*ExperimentReport, error) {
	env := experimentEnv()
	if err := spec.Validate(env); err != nil {
		return nil, mapExpError(err)
	}
	schemeNames, err := spec.SchemeNames(env)
	if err != nil {
		return nil, mapExpError(err)
	}

	// Inline configs, parsed once, addressable by their resolved name.
	inline := map[string]SchemeConfig{}
	for _, raw := range spec.SchemeConfigs {
		c, err := ParseSchemeConfig(raw)
		if err != nil {
			return nil, err
		}
		inline[c.Name] = c
	}

	// Expand the matrix in deterministic order: parameter points outermost,
	// then seeds, workloads, schemes — the grouping the report reads in.
	points := spec.Matrix.Points()
	type coord struct {
		scheme, workload string
		seed             uint64
		point            exp.Point
	}
	var (
		sims   []*Simulation
		coords []coord
	)
	for _, pt := range points {
		for _, seed := range spec.Seeds {
			for _, wl := range spec.Workloads {
				for _, scheme := range schemeNames {
					simOpts := []Option{
						WithScheme(scheme),
						WithWorkload(wl),
						WithSeeds(seed, seed),
					}
					if c, ok := inline[scheme]; ok {
						simOpts = append(simOpts, WithSchemeConfig(c))
					}
					if spec.Window != nil {
						simOpts = append(simOpts, WithWindow(spec.Window.Warm, spec.Window.Measure))
					}
					if pt.BTBEntries > 0 {
						simOpts = append(simOpts, WithBTBEntries(pt.BTBEntries))
					}
					if pt.LLCLatency > 0 {
						simOpts = append(simOpts, WithLLCLatency(pt.LLCLatency))
					}
					if pt.FootprintKB > 0 {
						simOpts = append(simOpts, WithFootprintKB(pt.FootprintKB))
					}
					if pt.Predictor != "" {
						simOpts = append(simOpts, WithPredictor(pt.Predictor))
					}
					s, err := New(simOpts...)
					if err != nil {
						return nil, fmt.Errorf("experiment %s: %s on %s: %w", spec.Name, scheme, wl, err)
					}
					sims = append(sims, s)
					coords = append(coords, coord{scheme, wl, seed, pt})
				}
			}
		}
	}

	results, err := RunMatrix(ctx, sims, opts...)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", spec.Name, err)
	}

	cells := make([]exp.Cell, len(results))
	for i, r := range results {
		cells[i] = exp.Cell{
			Scheme:   coords[i].scheme,
			Workload: coords[i].workload,
			Seed:     coords[i].seed,
			Point:    coords[i].point,
			Metrics:  flattenResult(r),
		}
	}
	report, err := exp.BuildReport(&spec, schemeNames, cells)
	if err != nil {
		return nil, mapExpError(err)
	}
	return report, nil
}
