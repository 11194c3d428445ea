// Package sim runs complete simulations: a scheme on a workload under a
// configuration, with a warmup window followed by a measurement window
// (mirroring the paper's SMARTS-style methodology of measuring from warmed
// microarchitectural state). It also provides the comparative metrics the
// figures report — stall-cycle coverage and speedup versus the no-prefetch
// baseline.
package sim

import (
	"context"
	"errors"
	"fmt"
	"os"

	"boomsim/internal/cache"
	"boomsim/internal/config"
	"boomsim/internal/frontend"
	"boomsim/internal/memo"
	"boomsim/internal/prefetch"
	"boomsim/internal/program"
	"boomsim/internal/scheme"
	"boomsim/internal/stats"
	"boomsim/internal/workload"
)

// Spec describes one simulation.
type Spec struct {
	// Scheme is the configuration under test.
	Scheme scheme.Scheme
	// Workload selects the code image profile.
	Workload workload.Profile
	// Cfg is the core configuration; zero value means config.Default().
	Cfg config.Core
	// ImageSeed/WalkSeed control generation and execution randomness.
	ImageSeed, WalkSeed uint64
	// Predictor overrides the FDIP direction predictor ("" = TAGE).
	Predictor string
	// WarmInstrs run before counters reset; MeasureInstrs are then measured.
	WarmInstrs, MeasureInstrs uint64
	// MaxCycles bounds the measurement window (0 = unbounded).
	MaxCycles int64
	// ReuseWarm lets the run fork memoised warmed state shared with other
	// runs of the same warm-relevant configuration (see the warm arena in
	// warm.go) instead of re-simulating the warm window. Results are
	// byte-identical either way — a fork is indistinguishable from a fresh
	// warm — so this is purely a wall-clock optimisation. DefaultSpec enables
	// it; the zero value is off so hand-built Specs opt in explicitly.
	ReuseWarm bool
	// FlightEvery, when > 0, attaches the flight recorder to the measurement
	// window: windowed counter deltas every FlightEvery cycles, returned as
	// Result.Epochs. It is warm-irrelevant (recording starts after the warm
	// boundary), so recorded and unrecorded runs share warm-arena masters;
	// the measured counters themselves are unaffected.
	FlightEvery int64
	// DisableCycleSkip forces the per-cycle interpretation loop instead of
	// event-horizon cycle skipping (see internal/frontend/skip.go). Results
	// are byte-identical either way — tests and benchmarks set it for
	// control runs, and BOOMSIM_NO_SKIP=1 sets it for every run in the
	// process (see noSkip) — so the zero value keeps skipping on. It IS
	// warm-relevant for the arena key: skip-on and skip-off runs never share
	// a warm master, keeping the control arm's provenance entirely separate.
	DisableCycleSkip bool
}

// DefaultSpec fills in the standard methodology: Table I config, 200K warm
// instructions, 1M measured.
func DefaultSpec(s scheme.Scheme, w workload.Profile) Spec {
	return Spec{
		Scheme:        s,
		Workload:      w,
		Cfg:           config.Default(),
		ImageSeed:     1,
		WalkSeed:      1,
		WarmInstrs:    200_000,
		MeasureInstrs: 1_000_000,
		MaxCycles:     0,
		ReuseWarm:     true,
	}
}

// Result is one simulation's outcome.
type Result struct {
	SchemeName   string
	WorkloadName string
	Stats        frontend.Stats
	Hier         cache.HierarchyStats
	IPC          float64
	// PredecodedLines counts cache lines run through a predecoder
	// (Boomerang's miss scans; zero for schemes without one).
	PredecodedLines uint64
	// PrefetchMetaBytes estimates prefetcher metadata moved (temporal
	// streamers: history records written plus replayed, ~5B each).
	PrefetchMetaBytes uint64
	// Registry holds every component's counters under its own namespace
	// (frontend, bpu, cache, btb, prefetch, boomerang, ...): the
	// full-fidelity measurement plane the headline fields above are a
	// projection of.
	Registry *stats.Registry
	// Epochs is the flight-recorder timeline (nil unless Spec.FlightEvery
	// was set): windowed counter deltas tiling the measurement window.
	Epochs []frontend.Epoch
}

// images memoises generated images: experiments run many schemes over the
// same workload, and image generation is the expensive part. It is bounded
// because long-running services expose the key's parameters (footprint,
// image seed) to clients, and an unbounded cache of multi-megabyte images
// would grow monotonically under a parameter sweep. An image holds 40 bytes
// per basic block plus its per-line index and target pool: 14.3 MB for
// DB2's 5 MB text (36.1 MB while blocks were 80 bytes and an address hash
// indexed them), 0.98 MB for Apache at 512 KB (2.35 MB). At the 16 MB
// footprint cap a DB2-shaped image holds 45.8 MB, so 32 entries hold at
// most ~1.5 GB (3.7 GB before).
const imageCacheEntries = 32

var images = memo.New[*program.Image](imageCacheEntries)

func imageFor(p workload.Profile, seed uint64) (*program.Image, error) {
	// The key covers the full generator parameterisation, not just the
	// profile name: public-API callers can override the footprint (or
	// register same-named variants), and those must not share an image.
	key := fmt.Sprintf("%s/%d/%+v", p.Name, seed, p.Gen)
	return images.Do(key, func() (*program.Image, error) { return p.Image(seed) })
}

// Hooks customises a context-aware run. The zero value means "no
// observation": the simulation runs in one uninterrupted stretch.
type Hooks struct {
	// ProgressEvery is the instruction granularity (within the measurement
	// window) at which the run checks ctx and reports progress. 0 uses
	// DefaultProgressEvery when the context is cancellable or Progress is
	// set, and disables chunking otherwise.
	ProgressEvery uint64
	// Progress, if non-nil, is called after every chunk with the retired
	// instruction count so far and the measurement target. It runs on the
	// simulating goroutine; keep it cheap.
	Progress func(done, total uint64)
	// OnWarm, if non-nil, is called once when the warmed instance is
	// resolved, with "fork" (served from the warm arena) or "fresh" (warmed
	// privately). It exists for observability — trace spans record how a
	// cell's warm state was obtained — and runs on the simulating goroutine.
	OnWarm func(source string)
}

// DefaultProgressEvery is the chunk size used when Hooks.ProgressEvery is
// zero but chunking is needed. At ~150ns/instruction it bounds cancellation
// latency to single-digit milliseconds.
const DefaultProgressEvery = 50_000

// Run executes one simulation.
func Run(spec Spec) (Result, error) {
	return RunContext(context.Background(), spec, Hooks{})
}

// RunContext executes one simulation with cooperative cancellation: the
// simulation loop checks ctx every Hooks.ProgressEvery retired instructions
// (warmup and measurement alike) and returns ctx's error if it fired.
func RunContext(ctx context.Context, spec Spec, h Hooks) (Result, error) {
	if spec.Cfg == (config.Core{}) {
		spec.Cfg = config.Default()
	}
	if err := spec.Cfg.Validate(); err != nil {
		return Result{}, err
	}
	// Schemes are declarative data that may arrive from JSON files or wire
	// requests; validate before the generic builder interprets (and would
	// panic on) a malformed config.
	if err := spec.Scheme.Validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	chunk := h.ProgressEvery
	if chunk == 0 && (ctx.Done() != nil || h.Progress != nil) {
		chunk = DefaultProgressEvery
	}

	var inst *scheme.Instance
	if spec.ReuseWarm {
		f, err, ok := forkWarm(ctx, spec, chunk)
		if err != nil {
			return Result{}, err
		}
		if ok {
			inst = f
		}
	}
	warmSource := "fork"
	if inst == nil {
		var err error
		inst, err = buildWarm(ctx, spec, chunk)
		if err != nil {
			return Result{}, err
		}
		warmSource = "fresh"
	}
	if h.OnWarm != nil {
		h.OnWarm(warmSource)
	}
	// The recorder attaches after the warm boundary (buildWarm resets stats
	// post-warm; forks inherit that reset), so epoch zero starts at measured
	// cycle zero and epochs tile exactly the measurement window.
	if spec.FlightEvery > 0 {
		inst.Engine.StartFlightRecorder(spec.FlightEvery)
	}
	if err := runWindow(ctx, inst.Engine, spec.MeasureInstrs, spec.MaxCycles, chunk, h.Progress); err != nil {
		return Result{}, err
	}
	r := collectResult(spec, inst)
	if spec.FlightEvery > 0 {
		epochs, err := inst.Engine.StopFlightRecorder()
		if err != nil {
			return Result{}, err
		}
		r.Epochs = epochs
	}
	return r, nil
}

// buildWarm performs everything up to the measurement window: image
// generation, scheme construction, LLC preload, the warm window and the
// stats reset. It is both RunContext's non-shared path and what warmMaster
// builds the warm arena's masters from.
func buildWarm(ctx context.Context, spec Spec, chunk uint64) (*scheme.Instance, error) {
	img, err := imageFor(spec.Workload, spec.ImageSeed)
	if err != nil {
		return nil, err
	}
	inst := spec.Scheme.Build(scheme.Env{
		Cfg:       spec.Cfg,
		Img:       img,
		WalkSeed:  spec.WalkSeed,
		Predictor: spec.Predictor,
	})
	// Applied before the warm window so warm and measurement run the same
	// loop.
	inst.Engine.SetCycleSkip(!noSkip(spec))
	// The paper measures from SMARTS checkpoints with warmed caches: all 16
	// cores run the same binary, so its text is LLC-resident. Preload it.
	warmLLCWithImage(inst, img)
	if spec.WarmInstrs > 0 {
		if err := runWindow(ctx, inst.Engine, spec.WarmInstrs, 0, chunk, nil); err != nil {
			return nil, err
		}
		inst.Engine.ResetStats()
	}
	return inst, nil
}

// noSkip reports whether spec runs the per-cycle loop: it asks to, or
// BOOMSIM_NO_SKIP=1 disables skipping process-wide. CI's golden control leg
// sets the variable to prove the per-cycle loop still reproduces the corpus
// bytes, and `BOOMSIM_NO_SKIP=1 boomsim -flight-every 1` traces every cycle.
// It is read on each call, not once at start-up, so a test can set it.
func noSkip(spec Spec) bool {
	return spec.DisableCycleSkip || os.Getenv("BOOMSIM_NO_SKIP") == "1"
}

// collectResult assembles a Result from an instance whose measurement window
// has completed.
func collectResult(spec Spec, inst *scheme.Instance) Result {
	st := inst.Engine.Stats()
	r := Result{
		SchemeName:   spec.Scheme.Name,
		WorkloadName: spec.Workload.Name,
		Stats:        st,
		Hier:         inst.Hier.Stats(),
		IPC:          st.IPC(),
	}
	if inst.Boom != nil {
		r.PredecodedLines = inst.Boom.Stats().LinesScanned
	}
	if inst.Predec != nil {
		r.PredecodedLines += inst.Predec.LinesDecoded
	}
	if tp, ok := inst.PF.(*prefetch.Temporal); ok {
		// One ~5-byte record written per recorded region and read per
		// replayed record.
		r.PrefetchMetaBytes = 5 * (tp.Replayed + tp.Triggers)
	}
	// Collect the per-component registry once, after the measurement window:
	// the hot loop never touches it.
	reg := stats.NewRegistry()
	inst.PublishStats(reg)
	r.Registry = reg
	return r
}

// ErrNoProgress reports a simulation window that stopped retiring
// instructions: a chunk ran to its full cycle allowance without a single
// retirement, which no healthy configuration does (worst-case miss chains
// retire orders of magnitude faster). It indicates a wedged engine — a
// malformed scheme or a simulator bug — not a slow workload.
var ErrNoProgress = errors.New("sim: simulation made no forward progress")

// windowEngine is the slice of frontend.Engine that runWindow drives. Run
// advances until target instructions have retired since the last stats reset
// or the absolute cycle bound is reached, whichever is first.
type windowEngine interface {
	Run(targetInstrs uint64, maxCycles int64) frontend.Stats
}

// Cycle allowance granted to a chunk before it is declared wedged: chunk
// instructions at an IPC far below any real configuration (the worst
// memory-bound runs stay under ~50 cycles/instruction; the allowance grants
// 400), floored high enough that even a single-instruction chunk can absorb
// a full squash-plus-memory-miss chain many times over.
const (
	noProgressCyclesPerInstr = 400
	noProgressCycleFloor     = 1 << 20
)

// runWindow advances the engine until target instructions have retired
// since the last stats reset (or maxCycles elapsed), in chunks of chunk
// instructions with a ctx check between chunks. chunk == 0 runs the whole
// window in one call with no checks — the hot path stays branch-free.
//
// With chunking and no cycle bound, each chunk runs under a synthetic cycle
// allowance so that a wedged engine — one that stops retiring entirely —
// returns control instead of spinning inside Engine.Run forever; a chunk
// that exhausts its allowance without retiring anything fails with
// ErrNoProgress. Healthy runs never come near the allowance, so their cycle
// trajectory (and every result) is unchanged.
func runWindow(ctx context.Context, eng windowEngine, target uint64, maxCycles int64, chunk uint64, progress func(done, total uint64)) error {
	if chunk == 0 {
		eng.Run(target, maxCycles)
		return nil
	}
	done := uint64(0)
	prevCycles := int64(0)
	for {
		next := done + chunk
		if next > target {
			next = target
		}
		budget := maxCycles
		if budget == 0 {
			// Engine.Run's bound is absolute (cycles since the last stats
			// reset), so the allowance extends from the cycles already spent.
			allowance := int64(chunk) * noProgressCyclesPerInstr
			if allowance < noProgressCycleFloor {
				allowance = noProgressCycleFloor
			}
			budget = prevCycles + allowance
		}
		st := eng.Run(next, budget)
		if err := ctx.Err(); err != nil {
			return err
		}
		if progress != nil {
			reached := st.RetiredInstrs
			if reached > target {
				reached = target
			}
			progress(reached, target)
		}
		if st.RetiredInstrs >= target {
			return nil
		}
		if maxCycles > 0 && st.Cycles >= maxCycles {
			return nil // cycle budget exhausted before the instruction target
		}
		if st.RetiredInstrs == done {
			return fmt.Errorf("%w: %d instructions retired after %d cycles (target %d)",
				ErrNoProgress, st.RetiredInstrs, st.Cycles, target)
		}
		done = st.RetiredInstrs
		prevCycles = st.Cycles
	}
}

func warmLLCWithImage(inst *scheme.Instance, img *program.Image) {
	lines := make([]cache.Line, 0, (img.Limit-img.Base)/64+1)
	for addr := img.Base; addr < img.Limit; addr += 64 {
		lines = append(lines, cache.LineOf(addr))
	}
	inst.Hier.WarmLLC(lines)
}

// WarmInstance performs everything Run does up to the measurement window —
// image generation, scheme construction, LLC preload, the warm window, the
// stats reset — and hands back the warmed instance. Benchmarks drive
// inst.Engine.Run directly from there, so setup and warm-up cost stay out
// of the timed region and the measured loop is genuinely steady-state.
func WarmInstance(spec Spec) (*scheme.Instance, error) {
	if spec.Cfg == (config.Core{}) {
		spec.Cfg = config.Default()
	}
	if err := spec.Cfg.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Scheme.Validate(); err != nil {
		return nil, err
	}
	return buildWarm(context.Background(), spec, 0)
}

// MustRun is Run for tests and examples with known-good specs.
func MustRun(spec Spec) Result {
	r, err := Run(spec)
	if err != nil {
		panic(err)
	}
	return r
}
