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
// configuration and hands every run a deep fork of it, so only the
// measurement window is re-simulated.
//
// Correctness rests on two invariants:
//   - A fork is indistinguishable from a fresh warm: Instance.Clone
//     duplicates every piece of mutable state, so results are byte-identical
//     with reuse on or off (the golden corpus pins this).
//   - The master never advances past the warm boundary: every consumer —
//     including the first — receives a clone, and clones never write through
//     to the master.
//
// The key must cover everything that shapes warmed state. That includes the
// full scheme config — warm microarchitectural contents (caches, BTB,
// predictor, prefetcher history, even the walker's exact stopping point) are
// scheme-dependent — serialised as canonical JSON because scheme.Config
// holds pointer sub-configs whose Go-syntax formatting would key on
// addresses. MeasureInstrs and MaxCycles are deliberately excluded: they
// only shape the measurement window, so sweeps over them share one master.
//
// The arena is bounded, which also caps resident memory. Measured heap per
// master with Table I's 8 MB LLC and a 200K-instruction warm window: 0.53 MB
// for Boomerang or FDIP on a 512 KB image, 1.1 MB for Confluence or
// PhantomBTB and 0.68 MB for SHIFT or PIF (their temporal history and
// PhantomBTB's fill ring hold only what the window recorded), and 3.6 MB
// for Boomerang on DB2's 5 MB image, whose text fills LLC sets past 8 ways
// so the tag store holds all 16 (cache.SetAssoc sizes it by occupancy). A
// full arena of the largest measured, PhantomBTB on DB2 at 4.2 MB, is
// about 1.1 GB. The bound is sized so a full 18-scheme x 7-workload matrix
// (126 entries, the sweep shape the paper's figures and this repo's
// benchmarks re-run most) stays resident even with dozens of other warmed
// configurations already in the arena — at a tighter bound a process mixing
// a full matrix with other sweeps evicts matrix masters mid-sweep and
// rebuilds them every pass.
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

// forkWarm returns a private fork of the memoised warmed instance for spec.
// ok reports whether the arena could serve the request; on ok == false
// (shared warm failed for a reason other than the caller's own context, or
// a component was not clonable) the caller falls back to building a private
// instance. A non-nil err is returned only for the caller's own
// cancellation.
func forkWarm(ctx context.Context, spec Spec, chunk uint64) (*scheme.Instance, error, bool) {
	master, err := warmArena.Do(warmKeyOf(spec), func() (*scheme.Instance, error) {
		return buildWarm(ctx, spec, chunk)
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
	// The master is immutable once warmed, so concurrent forks are safe.
	if c := master.Clone(); c != nil {
		return c, nil, true
	}
	return nil, nil, false
}
