package boomsim

import (
	"context"
	"errors"
	"fmt"

	"boomsim/internal/config"
	"boomsim/internal/frontend"
	"boomsim/internal/scheme"
	"boomsim/internal/sim"
	"boomsim/internal/workload"
)

// Simulation is one fully-resolved simulation: a scheme on a workload under
// a core configuration and measurement window. Construct it with New; the
// zero value is not usable. A Simulation is immutable after New and safe to
// run repeatedly and concurrently — every Run measures on private
// microarchitectural state: a fork of the process-wide warmed snapshot that
// runs with the same warm-relevant configuration share, or a fresh warm
// when no snapshot can serve it.
type Simulation struct {
	schemeName   string
	workloadName string
	predictor    string
	btbEntries   int
	llcLatency   int
	footprintKB  int
	// schemeCfg, when non-nil, is an inline declarative scheme
	// (WithSchemeConfig) that bypasses the registry.
	schemeCfg *SchemeConfig

	imageSeed, walkSeed       uint64
	warmInstrs, measureInstrs uint64
	maxCycles                 int64

	progressEvery uint64
	progress      ProgressFunc
	warmObs       func(source string)

	// flightEvery > 0 attaches the flight recorder (WithFlightRecorder):
	// epoch deltas every flightEvery cycles, carried on Result.Epochs.
	flightEvery int64

	// warmReuse gates forking warmed state from the process-wide warm arena
	// (sim package), and noCycleSkip forces the per-cycle simulation loop.
	// Only tests change them from reuse on, skipping on (export_test.go).
	warmReuse   bool
	noCycleSkip bool

	// Resolved at New time so configuration errors surface before any
	// cycles are simulated.
	scheme   scheme.Scheme
	workload workload.Profile
	cfg      config.Core
}

// Defaults reproduce the paper's headline methodology; New starts from
// these, and wire protocols (cmd/boomsimd) reference them instead of
// duplicating the values.
const (
	// DefaultScheme and DefaultWorkload are the headline configuration.
	DefaultScheme   = "Boomerang"
	DefaultWorkload = "Apache"
	// DefaultImageSeed and DefaultWalkSeed make unconfigured runs
	// reproducible.
	DefaultImageSeed = 1
	DefaultWalkSeed  = 1
	// DefaultWarmInstrs and DefaultMeasureInstrs are the SMARTS-style
	// measurement window: 200K warm + 1M measured instructions.
	DefaultWarmInstrs    = 200_000
	DefaultMeasureInstrs = 1_000_000
)

// New builds a Simulation from functional options, resolving the scheme and
// workload against the registries and validating the resulting core
// configuration. Defaults reproduce the paper's headline methodology:
// Boomerang on Apache, Table I core, 200K warm + 1M measured instructions,
// seeds 1/1 (the Default* constants).
func New(opts ...Option) (*Simulation, error) {
	s := &Simulation{
		schemeName:    DefaultScheme,
		workloadName:  DefaultWorkload,
		imageSeed:     DefaultImageSeed,
		walkSeed:      DefaultWalkSeed,
		warmInstrs:    DefaultWarmInstrs,
		measureInstrs: DefaultMeasureInstrs,
		warmReuse:     true,
	}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}

	var err error
	if s.schemeCfg != nil {
		// Inline declarative scheme: already validated by WithSchemeConfig.
		s.scheme = *s.schemeCfg
		s.schemeName = s.schemeCfg.Name
	} else if s.scheme, err = schemeByName(s.schemeName); err != nil {
		return nil, err
	}
	if s.workload, err = workloadByName(s.workloadName); err != nil {
		return nil, err
	}
	if s.footprintKB > 0 {
		s.workload.Gen.FootprintKB = s.footprintKB
	}

	s.cfg = config.Default()
	if s.btbEntries > 0 {
		s.cfg = s.cfg.WithBTB(s.btbEntries)
	}
	if s.llcLatency > 0 {
		s.cfg = s.cfg.WithLLCLatency(s.llcLatency)
	}
	if err := s.cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidOption, err)
	}
	return s, nil
}

// Scheme returns the resolved scheme's metadata.
func (s *Simulation) Scheme() SchemeInfo {
	return toSchemeInfo(s.scheme)
}

// Workload returns the resolved workload's metadata (footprint reflects any
// WithFootprintKB override).
func (s *Simulation) Workload() WorkloadInfo {
	return toWorkloadInfo(s.workload)
}

func (s *Simulation) spec() sim.Spec {
	return sim.Spec{
		Scheme:        s.scheme,
		Workload:      s.workload,
		Cfg:           s.cfg,
		ImageSeed:     s.imageSeed,
		WalkSeed:      s.walkSeed,
		Predictor:     s.predictor,
		WarmInstrs:    s.warmInstrs,
		MeasureInstrs: s.measureInstrs,
		MaxCycles:     s.maxCycles,
		ReuseWarm:     s.warmReuse,
		FlightEvery:   s.flightEvery,

		DisableCycleSkip: s.noCycleSkip,
	}
}

// Run executes the simulation to completion: warmup, then the measurement
// window. The simulation loop checks ctx cooperatively (every
// WithProgress granularity, or every sim chunk by default) and returns
// ErrCanceled — wrapping ctx's own error — if it fires mid-run.
func (s *Simulation) Run(ctx context.Context) (Result, error) {
	return s.runWithHooks(ctx, s.warmObs)
}

// runWithHooks is Run with an explicit warm observer: the matrix runner's
// tracing path injects its own span-recording observer without mutating
// the (immutable, shared) Simulation. onWarm may be nil; a WithWarmObserver
// callback installed at New time is chained after it.
func (s *Simulation) runWithHooks(ctx context.Context, onWarm func(source string)) (Result, error) {
	if onWarm == nil {
		onWarm = s.warmObs
	} else if obs := s.warmObs; obs != nil {
		inner := onWarm
		onWarm = func(src string) {
			inner(src)
			obs(src)
		}
	}
	r, err := sim.RunContext(ctx, s.spec(), sim.Hooks{
		ProgressEvery: s.progressEvery,
		Progress:      s.progress,
		OnWarm:        onWarm,
	})
	if err != nil {
		return Result{}, wrapRunError(err)
	}
	return newResult(r, s.scheme.StorageOverheadKB), nil
}

// wrapRunError maps context errors onto the public ErrCanceled sentinel and
// an overflowing flight recorder onto ErrInvalidOption (its epoch was too
// fine for the window), while leaving genuine simulation errors untouched.
func wrapRunError(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	if errors.Is(err, frontend.ErrRecorderFull) {
		return fmt.Errorf("%w: %w", ErrInvalidOption, err)
	}
	return err
}
