package sim

import (
	"context"
	"encoding/json"
	"fmt"

	"boomsim/internal/memo"
	"boomsim/internal/scheme"
)

// The warm arena memoises warmed instances — the snapshot/fork plane that
// makes sweeps sub-linear in their warm cost. A sweep re-simulates the same
// 200K-instruction warm window for every run that shares a warm-relevant
// configuration (repeated matrix runs, parameter sweeps over the measurement
// window, benchmark iterations); the arena instead warms one master per
// configuration and hands every later run a deep fork of it, so only the
// measurement window is re-simulated.
//
// Correctness rests on two invariants:
//   - A fork is indistinguishable from a fresh warm: Instance.Clone
//     duplicates every piece of mutable state, so results are byte-identical
//     with reuse on or off (the golden corpus pins this).
//   - The master never advances past the warm boundary: the arena keeps a
//     clone of the warmed instance, the run that warmed it measures on the
//     warmed instance itself, every later run receives a clone of the
//     master, and no clone writes through to its original.
//
// The key must cover everything that shapes warmed state. That includes the
// full scheme config — warm microarchitectural contents (caches, BTB,
// predictor, prefetcher history, even the walker's exact stopping point) are
// scheme-dependent — serialised as canonical JSON because scheme.Config
// holds pointer sub-configs whose Go-syntax formatting would key on
// addresses. MeasureInstrs and MaxCycles are deliberately excluded: they
// only shape the measurement window, so sweeps over them share one master.
//
// The arena is bounded, which also caps resident memory. A master holds
// only what its warm window wrote: the BTBs and the cache tag stores keep a
// chunk per set sized by the set's fill (cache.Sets), and the temporal
// history and PhantomBTB's fill ring grow as they are recorded. Measured
// bytes per master as the arena keeps it, with Table I's 8 MB LLC and a
// 200K-instruction warm window: 0.44 MB for Boomerang or FDIP on a 512 KB
// image, whose text leaves one line in almost every LLC set, 0.55 MB for
// SHIFT or PIF, 0.59 MB for PhantomBTB and 0.70 MB for Confluence; 3.6 MB
// for Boomerang on DB2's 5 MB image, whose text fills LLC sets 10 lines
// deep, so each holds a 16-slot chunk. A full arena of the largest
// measured, Confluence on DB2 at 3.9 MB, is about 1.0 GB. The bound is
// sized so a full 18-scheme x 7-workload matrix (126 entries, the sweep
// shape the paper's figures and this repo's benchmarks re-run most) stays
// resident even with dozens of other warmed configurations already in the
// arena — at a tighter bound a process mixing a full matrix with other
// sweeps evicts matrix masters mid-sweep and rebuilds them every pass.
const warmArenaEntries = 256

var warmArena = memo.New[*scheme.Instance](warmArenaEntries)

// warmKeyOf projects spec onto its warm-relevant parameters.
func warmKeyOf(spec Spec) string {
	cfg, err := json.Marshal(spec.Scheme)
	if err != nil {
		// Unreachable: scheme.Config is plain data and Validate rejects the
		// non-finite floats JSON cannot carry.
		panic(fmt.Sprintf("sim: marshaling scheme config: %v", err))
	}
	// The skip flag is result-irrelevant (byte-identity; see
	// internal/frontend/skip.go) but still keyed: a control arm asking for
	// the per-cycle loop must not be handed a master warmed by the skipping
	// loop, or the control would no longer exercise what it claims to.
	return fmt.Sprintf("scheme=%s|workload=%s/%d/%+v|walk=%d|pred=%q|core=%+v|warm=%d|noskip=%t",
		cfg, spec.Workload.Name, spec.ImageSeed, spec.Workload.Gen,
		spec.WalkSeed, spec.Predictor, spec.Cfg, spec.WarmInstrs,
		noSkip(spec))
}

// forkWarm returns a private warmed instance for spec: for the run that
// warms the arena's master, the instance the master was cloned from, and
// for every other run a fork of the memoised master. ok reports whether the
// arena could serve the request; on ok == false (shared warm failed for a
// reason other than the caller's own context) the caller falls back to
// building a private instance. A non-nil err is returned only for the
// caller's own cancellation.
func forkWarm(ctx context.Context, spec Spec, chunk uint64) (*scheme.Instance, error, bool) {
	var warmed *scheme.Instance
	master, err := warmArena.Do(warmKeyOf(spec), func() (m *scheme.Instance, err error) {
		m, warmed, err = warmMaster(ctx, spec, chunk)
		return m, err
	})
	if err != nil {
		// The failure may be another caller's cancellation; the arena has
		// dropped the entry, so it poisons nothing. Our own cancellation
		// surfaces directly; anything else falls back to the private path,
		// which reproduces the error (or succeeds if it was transient).
		if err := ctx.Err(); err != nil {
			return nil, err, true
		}
		return nil, nil, false
	}
	if warmed != nil {
		return warmed, nil, true
	}
	// The master is immutable once warmed, so concurrent forks are safe.
	return master.Clone(), nil, true
}

// warmMaster warms an instance for spec and returns the master the arena
// keeps, a clone of it, with the warmed instance, which becomes the fork
// of the run that warmed it. The clone lays every occupancy-sized structure
// out afresh, so the resident master carries none of the holes and append
// slack the warm window left behind (the BTBs' and tag stores' moved
// chunks, the temporal history's doubling).
func warmMaster(ctx context.Context, spec Spec, chunk uint64) (master, warmed *scheme.Instance, err error) {
	inst, err := buildWarm(ctx, spec, chunk)
	if err != nil {
		return nil, nil, err
	}
	return inst.Clone(), inst, nil
}
