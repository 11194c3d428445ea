package frontend

import "boomsim/internal/cache"

// Event-horizon cycle skipping.
//
// A front-end study spends much of its simulated time in deterministic dead
// windows: fetch blocked on a known fill readyAt, the BPU stalled until a
// known resumeAt, the backend draining toward a known resolveAt. Inside such
// a window every Tick is a pure counter increment — no component changes
// state in a way the rest of the machine can observe before a known future
// cycle — so Run can compute the earliest cycle at which anything CAN change
// state (the event horizon), bulk-accrue the per-cycle stall counters for
// the whole window in one addition each, and jump the clock straight there.
//
// The bar is byte-identity: a skipping run must produce exactly the bytes a
// per-cycle run produces — same Stats, same registry, same epochs. That
// holds because skipHorizon only returns a future cycle when it has proven,
// component by component, that every Tick before that cycle does nothing
// beyond what fastForward replays in closed form:
//
//   - cache.Hierarchy: fills are its only spontaneous activity; the earliest
//     pending MSHR readyAt bounds the next one (Hierarchy.NextEvent).
//   - Prefetchers: Prefetcher.NextEvent bounds the next delayed issue;
//     NextLine/DIP act only inside OnDemand, Temporal drains a head-of-line
//     queue with known issueAts.
//   - Backend: resolveAt is non-decreasing in fetch order, so the oldest
//     unreported group's resolveAt bounds every future resolution — and the
//     training and squashes resolutions trigger (Backend.NextEvent). An
//     already-resolved head retiring is the one in-window activity the skip
//     tolerates: Backend.FastRetire replays that drain bit-for-bit, at
//     RetireWidth per cycle with exact per-group retirement cycles, so
//     OnRetire observers and Run's instruction target see the same stream a
//     per-cycle run produces. Retirement is invisible to the stalled front
//     end until fetch next pops an entry — except when fetch is blocked on
//     a full ROB, where freed slots matter cycle-by-cycle, so that state
//     is never skipped while retirement is in progress.
//   - BPU: either stalled until bpuStallUntil (Boomerang predecode or a
//     squash redirect), or blocked by a full FTQ — which stays full, since
//     fetch is stalled and squashes need a resolution. If it would predict
//     this cycle, the horizon is now and no skip happens.
//   - Fetch: either mid-stall on a known lineReady, or idle on an empty FTQ
//     / full ROB whose end conditions are BPU / backend events respectively.
//   - BTB/predecoder fill paths: BTB training happens at resolutions
//     (backend events) and miss-handler calls (BPU activity); Confluence
//     predecode-at-fill runs inside Hierarchy.Tick via the fill hook, i.e.
//     at a hierarchy event. BTB LRU timestamps only move on lookups, and no
//     lookup happens in a skipped cycle.
//
// The skip is invisible to results and therefore deliberately excluded from
// the public cache identity (boomsim.Key); FuzzSkipIdentity and the golden
// corpus pin the equivalence.

// SetCycleSkip enables or disables event-horizon cycle skipping (enabled by
// default). Disabling it forces the per-cycle interpretation loop; results
// are byte-identical either way. sim.Spec.DisableCycleSkip and
// BOOMSIM_NO_SKIP=1 turn it off for control runs and for single-cycle
// flight-recorder traces.
func (e *Engine) SetCycleSkip(on bool) { e.noSkip = !on }

// SkippedCycles returns the cycles fast-forwarded (rather than ticked) since
// the last ResetStats. It is diagnostic only — deliberately not part of
// Stats, whose bytes must not depend on whether skipping is enabled.
func (e *Engine) SkippedCycles() int64 { return e.skipped - e.skippedBase }

// skipHorizon returns the earliest cycle at which any component can change
// observable state: now itself when some component is active this cycle (no
// skip), a future cycle when every component is provably inert until then,
// or cache.NoEvent when nothing is scheduled at all (a wedged or drained
// engine; Run only skips to a horizon bounded by a clamp). drain reports
// that the backend is mid-retirement — inert to the stalled front end, but
// the window must be replayed through Backend.FastRetire rather than
// plainly jumped.
func (e *Engine) skipHorizon(now int64) (h int64, drain bool) {
	// Fetch engine. Mid-entry with the line still in flight, fetch is
	// stalled until lineReady. Between entries it either pops the FTQ this
	// cycle (busy), idles on an empty FTQ until the BPU delivers (a BPU
	// event, folded in below), or idles on a full ROB — where each retired
	// instruction matters cycle-by-cycle, so an active drain forces
	// per-cycle ticking and an idle backend unblocks at its next
	// resolution (folded in below). The mid-fetch busy case exits before
	// anything else is computed: it is the hot loop's common path.
	if e.cur != nil && (!e.haveLine || now >= e.lineReady) {
		return now, false
	}
	h = cache.NoEvent
	drain = e.be.Retiring()
	if e.cur != nil {
		h = e.lineReady
	} else if e.ftq.len() > 0 {
		if drain || e.be.InFlightInstrs() < e.cfg.ROBSize {
			return now, false
		}
	}

	// BPU. Stalled, its resumption is a known event; unstalled it predicts
	// this cycle unless the FTQ is full — and a full FTQ stays full while
	// fetch is stalled (squashes require a backend resolution, bounded
	// below).
	if e.bpuStallUntil > now {
		if e.bpuStallUntil < h {
			h = e.bpuStallUntil
		}
	} else if e.ftq.len() < e.ftqDepth {
		return now, false
	}

	// The FDIP prefetch engine issues probes every cycle its queue is
	// non-empty.
	if e.fdipProbes && e.probeQ.len() > 0 {
		return now, false
	}

	if ev := e.be.NextEvent(); ev < h {
		h = ev
	}
	if ev := e.hier.NextEvent(); ev < h {
		h = ev
	}
	if e.pf != nil {
		if ev := e.pf.NextEvent(now); ev < h {
			h = ev
		}
	}
	return h, drain
}

// accrueStalls bulk-accrues, for the window [now, to), exactly the counters
// the skipped Ticks would have incremented: one BPU-stall count per cycle
// when the BPU is stalled, plus — mirroring fetchStep's priority order —
// either the fetch-stall triple (correct-path entries only), the FTQ-empty
// count, or the ROB-stall count. The window's conditions are loop-invariant
// by construction (skipHorizon proved no component changes them before
// `to`), so n identical increments collapse into one addition each.
func (e *Engine) accrueStalls(now, to int64) {
	n := uint64(to - now)
	if e.bpuStallUntil > now {
		e.stats.BPUMissStallCycles += n
	}
	if ent := e.cur; ent != nil {
		if ent.OnCorrectPath {
			e.stats.FetchStallCycles += n
			e.stats.StallByClass[e.lineClass(ent)] += n
			e.stats.StallByLevel[e.lineLevel] += n
		}
	} else if e.ftq.len() == 0 {
		e.stats.FTQEmptyCycles += n
	} else {
		e.stats.ROBStallCycles += n
	}
}

// fastForward advances the clock from now to the horizon `to`. With the
// backend mid-drain it first replays the window's retirement stream in
// closed form: Backend.FastRetire retires at RetireWidth per cycle with
// exact per-group cycles (stopping the cycle after Run's instruction target
// is crossed, just as the per-cycle loop would), and the retired groups are
// then consumed verbatim — the same in-order frees and OnRetire calls, with
// the same cycle stamps, backendStep would have made. Counters accrue over
// the actually-covered window, which target crossing may end before `to`.
func (e *Engine) fastForward(now, to int64, drain bool, targetInstrs uint64) {
	if drain {
		// Run's loop invariant guarantees the target is still ahead.
		stopAfter := targetInstrs - (e.be.Retired() - e.retireBase)
		to = e.be.FastRetire(now, to, stopAfter)
		for _, ev := range e.be.RetiredEvents() {
			// In-order retirement: anything still queued ahead of a retired
			// group is a wrong-path group the backend popped silently.
			for e.inflight.len() > 0 && e.inflight.front().ID < ev.ID {
				e.freeEntry(e.inflight.popFront())
			}
			if e.inflight.len() > 0 && e.inflight.front().ID == ev.ID {
				ent := e.inflight.popFront()
				if e.pf != nil && ent.OnCorrectPath {
					first, last := ent.Lines()
					for l := first; l <= last; l++ {
						e.pf.OnRetire(l, ev.At)
					}
				}
				e.freeEntry(ent)
			}
		}
	}
	e.accrueStalls(now, to)
	e.skipped += to - now
	e.cycle = to
}
