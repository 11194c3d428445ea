package boomsim

import (
	"fmt"
	"time"

	"boomsim/internal/cluster"
)

// WithBreakerCooldown tunes the per-worker circuit breaker: a worker whose
// breaker opens rests for d before half-opening for a probe batch, doubling
// up to max on repeated failures (defaults 1s and 30s). Only the chaos
// suite sets it, to keep its fault storms short.
func WithBreakerCooldown(d, max time.Duration) ClusterOption {
	return func(c *cluster.Config) error {
		if d <= 0 || max < d {
			return fmt.Errorf("%w: breaker cooldown needs 0 < base <= max, got %v, %v", ErrInvalidOption, d, max)
		}
		c.BreakerCooldown, c.BreakerMaxCooldown = d, max
		return nil
	}
}

// WithWarmReuse and WithCycleSkip are test-only options. Production runs
// always reuse warm state and skip cycles, unless BOOMSIM_NO_SKIP=1 turns
// skipping off process-wide; skip_test.go and BenchmarkMatrix18x7NoReuse
// use these to pit both settings against each other.

// WithWarmReuse toggles warm-state reuse (on by default): runs sharing a
// warm-relevant configuration — scheme, workload, seeds, core config,
// predictor and warm length — fork one process-wide warmed snapshot instead
// of each re-simulating the warm window, so sweeps pay the warm cost once
// per configuration rather than once per run. Results are byte-identical
// either way (a fork is indistinguishable from a fresh warm), which is why
// reuse does not participate in Key: it is purely a wall-clock and memory
// trade. Disable it to bound resident memory (each cached snapshot holds
// 0.5 to 5 MB of warmed state, depending on scheme and image size) or when
// auditing the simulator itself.
func WithWarmReuse(on bool) Option {
	return func(s *Simulation) error {
		s.warmReuse = on
		return nil
	}
}

// WithCycleSkip toggles event-horizon cycle skipping (on by default): when
// every component is provably inert until a known future cycle — fetch
// blocked on a fill, the BPU stalled on a predecode, the backend draining —
// the simulation loop jumps straight to that cycle and bulk-accrues the
// skipped cycles' stall counters, instead of ticking them one at a time.
// Results are byte-identical either way (the golden corpus and
// FuzzSkipIdentity pin this), which is why the flag — like WithWarmReuse —
// does not participate in Key: it is purely a wall-clock trade. Disable it
// for control runs that must exercise the per-cycle loop, or when debugging
// with single-cycle flight-recorder traces (WithFlightRecorder(1)), where
// watching every cycle individually is the point.
func WithCycleSkip(on bool) Option {
	return func(s *Simulation) error {
		s.noCycleSkip = !on
		return nil
	}
}
