package boomsim

import "fmt"

// Option configures a Simulation at construction time. Options are applied
// in order by New; a failing option aborts construction.
type Option func(*Simulation) error

// ProgressFunc observes a running simulation: done is the number of
// instructions retired so far in the measurement window, total the window's
// target. It is called on the simulating goroutine; keep it cheap.
type ProgressFunc func(done, total uint64)

// WithScheme selects the control-flow-delivery scheme by registry name
// (default "Boomerang"). Unknown names surface ErrUnknownScheme from New.
func WithScheme(name string) Option {
	return func(s *Simulation) error {
		s.schemeName = name
		return nil
	}
}

// WithSchemeConfig runs an inline declarative scheme instead of a
// registry-resolved one: the full recipe — FTQ depth, prefetcher, BTB
// organisation, miss policy, predictor, storage accounting — travels with
// the Simulation, so novel scenarios need neither registration nor code.
// The config is validated by New; it overrides any WithScheme selection,
// and Result.Scheme reports cfg.Name. Configs parsed from JSON files
// (LoadSchemeConfig) plug in here directly.
func WithSchemeConfig(cfg SchemeConfig) Option {
	return func(s *Simulation) error {
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidOption, err)
		}
		s.schemeCfg = &cfg
		return nil
	}
}

// WithWorkload selects the workload profile by registry name (default
// "Apache"). Unknown names surface ErrUnknownWorkload from New.
func WithWorkload(name string) Option {
	return func(s *Simulation) error {
		s.workloadName = name
		return nil
	}
}

// WithBTBEntries overrides the basic-block BTB capacity (default Table I:
// 2048 entries; New accepts at most 1<<20).
func WithBTBEntries(entries int) Option {
	return func(s *Simulation) error {
		if entries <= 0 {
			return fmt.Errorf("%w: BTB entries must be positive, got %d", ErrInvalidOption, entries)
		}
		s.btbEntries = entries
		return nil
	}
}

// WithLLCLatency overrides the average LLC round-trip latency in cycles
// (default Table I: 30 for the 4x4 mesh; Figure 11 uses 18 for a crossbar;
// New accepts at most 4096).
func WithLLCLatency(cycles int) Option {
	return func(s *Simulation) error {
		if cycles <= 0 {
			return fmt.Errorf("%w: LLC latency must be positive, got %d", ErrInvalidOption, cycles)
		}
		s.llcLatency = cycles
		return nil
	}
}

// WithPredictor selects the direction predictor: "tage" (default),
// "bimodal", or "never-taken" (the Figure 2 study).
func WithPredictor(name string) Option {
	return func(s *Simulation) error {
		switch name {
		case "", "tage", "bimodal", "never-taken":
			s.predictor = name
			return nil
		}
		return fmt.Errorf("%w: unknown predictor %q (have: tage, bimodal, never-taken)",
			ErrInvalidOption, name)
	}
}

// WithSeeds sets the code-image generation seed and the oracle execution
// seed (both default 1). Results are a pure function of the full option
// set, so equal seeds reproduce runs exactly.
func WithSeeds(imageSeed, walkSeed uint64) Option {
	return func(s *Simulation) error {
		s.imageSeed = imageSeed
		s.walkSeed = walkSeed
		return nil
	}
}

// WithWindow sets the measurement methodology: warm instructions run first
// with statistics discarded (warming caches, predictors and prefetcher
// state, mirroring the paper's SMARTS-style sampling), then measure
// instructions are measured. measure must be positive.
func WithWindow(warm, measure uint64) Option {
	return func(s *Simulation) error {
		if measure == 0 {
			return fmt.Errorf("%w: measurement window must be positive", ErrInvalidOption)
		}
		s.warmInstrs = warm
		s.measureInstrs = measure
		return nil
	}
}

// WithMaxCycles bounds the measurement window in cycles (0 = unbounded):
// the run stops at whichever of the instruction target or cycle budget is
// reached first.
func WithMaxCycles(cycles int64) Option {
	return func(s *Simulation) error {
		if cycles < 0 {
			return fmt.Errorf("%w: max cycles must be >= 0, got %d", ErrInvalidOption, cycles)
		}
		s.maxCycles = cycles
		return nil
	}
}

// WithFootprintKB overrides the workload's calibrated instruction footprint
// (0 = the profile's own). Smaller footprints generate faster and run
// hotter; tests and examples use this to stay within CI budgets. An override
// must lie in [16, 16384] KB: the generator needs 16 KB, and the largest
// profile is 6 MB, while a 16 MB image already takes most of a second and
// 84 MB of heap to generate.
func WithFootprintKB(kb int) Option {
	return func(s *Simulation) error {
		if kb != 0 && (kb < minFootprintKB || kb > maxFootprintKB) {
			return fmt.Errorf("%w: footprint must be 0 (the profile's own) or in [%d, %d] KB, got %d",
				ErrInvalidOption, minFootprintKB, maxFootprintKB, kb)
		}
		s.footprintKB = kb
		return nil
	}
}

// The footprint overrides WithFootprintKB accepts.
const (
	minFootprintKB = 16
	maxFootprintKB = 16 << 10
)

// WithFlightRecorder attaches the simulator flight recorder: the
// measurement window is sampled every everyCycles cycles into windowed
// counter deltas (fetch bubbles, BTB misses, prefetch issues and hits,
// squashes) returned as Result.Epochs, so one run renders as a timeline.
// Epochs exactly tile the measurement window; the measured counters
// themselves are unchanged. Recording changes the Result's bytes, so
// FlightEvery participates in Key (runs with different epochs must not
// share cache entries); warm-state reuse is unaffected.
func WithFlightRecorder(everyCycles int64) Option {
	return func(s *Simulation) error {
		if everyCycles <= 0 {
			return fmt.Errorf("%w: flight-recorder epoch must be positive cycles, got %d",
				ErrInvalidOption, everyCycles)
		}
		s.flightEvery = everyCycles
		return nil
	}
}

// WithWarmObserver installs a callback invoked once per Run with how the
// warmed state was obtained: "fork" (served from the process-wide warm
// arena) or "fresh" (warmed privately). Purely observational — trace spans
// use it to record warm-arena hits — so, like WithProgress, it does not
// participate in Key. The callback runs on the simulating goroutine.
func WithWarmObserver(fn func(source string)) Option {
	return func(s *Simulation) error {
		if fn == nil {
			return fmt.Errorf("%w: nil warm observer", ErrInvalidOption)
		}
		s.warmObs = fn
		return nil
	}
}

// WithProgress installs a progress callback invoked every `every` retired
// instructions of the measurement window (0 uses the default cancellation
// granularity). The callback cadence also bounds how quickly Run notices a
// canceled context.
func WithProgress(every uint64, fn ProgressFunc) Option {
	return func(s *Simulation) error {
		if fn == nil {
			return fmt.Errorf("%w: nil progress callback", ErrInvalidOption)
		}
		s.progressEvery = every
		s.progress = fn
		return nil
	}
}
