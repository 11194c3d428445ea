// Package backend models the core's execution window as seen by the front
// end: an in-order retire approximation of the paper's 3-way out-of-order
// core. Instruction groups (fetched basic blocks) enter when fetch completes,
// resolve their terminating branch BackendDepth cycles later (the point where
// a misprediction squashes), and retire in order at RetireWidth instructions
// per cycle. This level of detail is what front-end studies need: IPC is
// shaped by fetch stalls, squash bubbles, and refill latency, not by
// data-flow scheduling.
//
// The window is a preallocated ring buffer and Tick reports resolutions and
// retirements through reused scratch slices, so the per-cycle path performs
// no heap allocation at steady state (the simulator's zero-alloc contract;
// see the frontend package comment).
package backend

import (
	"math"

	"boomsim/internal/config"
)

// Group is one fetched basic block (or sequential pseudo-block) in flight.
type Group struct {
	// ID is the engine-assigned monotonically increasing identity.
	ID uint64
	// NInstr is the instruction count the group contributes.
	NInstr int
	// FetchDone is the cycle the last instruction was fetched.
	FetchDone int64
	// WrongPath marks groups fetched past an unresolved misprediction;
	// they occupy the window but never count as retired work.
	WrongPath bool
}

type inflight struct {
	Group
	resolveAt int64
	remaining int // unretired instructions
}

// Backend is the retire/resolve window.
type Backend struct {
	cfg config.Core

	// win is the window as a power-of-two ring buffer in fetch order; the
	// element at index head retires first. nResolved counts the leading
	// groups whose resolution has already been reported, so the per-cycle
	// scan resumes where it left off instead of re-walking the window.
	win       []inflight
	head      int
	n         int
	mask      int
	nResolved int

	// resolvedScratch/retiredScratch back the slices Tick returns; they are
	// reused every cycle.
	resolvedScratch []uint64
	retiredScratch  []uint64

	retired       uint64 // correct-path instructions retired
	retiredGroups uint64
	inflightCount int // instructions in window

	// fastRetired backs RetiredEvents: the groups the last FastRetire call
	// fully retired, reused every call (zero-alloc contract).
	fastRetired []RetiredEvent
}

// New builds a backend window from core parameters.
func New(cfg config.Core) *Backend {
	// The fetch engine admits a group only while occupancy is below ROBSize
	// and every group carries at least one instruction, so ROBSize+1 groups
	// bound the window; sizing the ring up front makes Push allocation-free.
	capacity := 4
	for capacity < cfg.ROBSize+2 {
		capacity *= 2
	}
	return &Backend{
		cfg:  cfg,
		win:  make([]inflight, capacity),
		mask: capacity - 1,
		// One FastRetire call retires at most the whole window.
		fastRetired: make([]RetiredEvent, 0, capacity),
	}
}

// at returns the i-th window element in fetch order (0 = oldest).
func (b *Backend) at(i int) *inflight {
	return &b.win[(b.head+i)&b.mask]
}

// Push admits a fetched group. IDs must be strictly increasing and
// FetchDone non-decreasing (in-order fetch).
func (b *Backend) Push(g Group) {
	if b.n > 0 {
		last := b.at(b.n - 1)
		if g.ID <= last.ID {
			panic("backend: group IDs must increase")
		}
		if g.FetchDone < last.FetchDone {
			g.FetchDone = last.FetchDone
		}
	}
	if b.n == len(b.win) {
		b.growWindow()
	}
	*b.at(b.n) = inflight{
		Group:     g,
		resolveAt: g.FetchDone + int64(b.cfg.BackendDepth),
		remaining: g.NInstr,
	}
	b.n++
	b.inflightCount += g.NInstr
}

// growWindow doubles the ring (only reachable when a caller bypasses the
// ROB-occupancy admission rule, e.g. a unit test pushing directly).
func (b *Backend) growWindow() {
	next := make([]inflight, 2*len(b.win))
	for i := 0; i < b.n; i++ {
		next[i] = *b.at(i)
	}
	b.win = next
	b.head = 0
	b.mask = len(next) - 1
}

// InFlightInstrs returns the instructions currently occupying the window
// (the ROB occupancy the fetch engine throttles on).
func (b *Backend) InFlightInstrs() int { return b.inflightCount }

// Retired returns correct-path instructions retired so far.
func (b *Backend) Retired() uint64 { return b.retired }

// RetiredGroups returns correct-path groups retired so far.
func (b *Backend) RetiredGroups() uint64 { return b.retiredGroups }

// Tick advances one cycle: emits branch resolutions due at now and retires
// up to RetireWidth instructions in order. resolved lists group IDs whose
// terminator resolves this cycle (the engine trains predictors and triggers
// squashes on these); retired lists correct-path groups fully retired this
// cycle (temporal-streaming prefetchers record these). Both slices are
// backed by scratch storage owned by the Backend and are only valid until
// the next Tick call.
func (b *Backend) Tick(now int64) (resolved, retired []uint64) {
	// Idle fast path: nothing in flight, or the oldest unresolved group is
	// still in the future with no resolved prefix to retire. This is the
	// common case on stalled cycles the engine cannot skip outright.
	if b.n == 0 || (b.nResolved == 0 && b.at(0).resolveAt > now) {
		return nil, nil
	}
	resolved = b.resolvedScratch[:0]
	retired = b.retiredScratch[:0]

	// Resolution is in fetch order, so only groups past the already-reported
	// prefix can become due.
	for b.nResolved < b.n {
		g := b.at(b.nResolved)
		if g.resolveAt > now {
			break
		}
		resolved = append(resolved, g.ID)
		b.nResolved++
	}

	budget := b.cfg.RetireWidth
	for budget > 0 && b.n > 0 {
		head := b.at(0)
		if head.resolveAt > now {
			break // head not old enough to retire
		}
		n := head.remaining
		if n > budget {
			n = budget
		}
		head.remaining -= n
		budget -= n
		b.inflightCount -= n
		if !head.WrongPath {
			b.retired += uint64(n)
		}
		if head.remaining == 0 {
			if !head.WrongPath {
				b.retiredGroups++
				retired = append(retired, head.ID)
			}
			b.head = (b.head + 1) & b.mask
			b.n--
			if b.nResolved > 0 {
				b.nResolved--
			}
		}
	}
	b.resolvedScratch = resolved
	b.retiredScratch = retired
	return resolved, retired
}

// NextEvent returns the earliest cycle at which Tick will report a branch
// resolution — the resolveAt of the oldest unreported group — or
// math.MaxInt64 when every group in the window has already resolved (or the
// window is empty). Push keeps FetchDone — and therefore resolveAt —
// non-decreasing in fetch order, so this single value bounds every future
// resolution AND the start of retirement for a so-far-unresolved head: no
// training, squash, or new retirement eligibility can appear before it. It
// deliberately excludes retirement already in progress; Retiring reports
// that, and FastRetire replays it in closed form for the engine's
// event-horizon cycle skip.
func (b *Backend) NextEvent() int64 {
	if b.nResolved == b.n {
		return math.MaxInt64
	}
	return b.at(b.nResolved).resolveAt
}

// Retiring reports whether retirement is in progress: the head group has
// resolved but not fully retired, so every Tick until the window's resolved
// prefix drains will retire instructions.
func (b *Backend) Retiring() bool { return b.n > 0 && b.nResolved > 0 }

// RetiredEvent records one correct-path group fully retired by FastRetire
// and the cycle Tick would have reported it.
type RetiredEvent struct {
	ID uint64
	At int64
}

// FastRetire replays, in one call, exactly the retirement work per-cycle
// Ticks would do over cycles [now, to) under the caller's guarantee that no
// resolution falls in that window (NextEvent() >= to): it drains the
// resolved prefix at RetireWidth instructions per cycle, recording each
// fully-retired correct-path group and its retirement cycle for
// RetiredEvents. When stopAfter > 0 and cumulative correct-path retirements
// within this call reach it at cycle c, the replay completes cycle c (a
// real Tick retires its full width regardless of any caller's target) and
// stops; the returned end cycle is then c+1, otherwise to. State afterwards
// is bit-for-bit what per-cycle Ticks would leave at the start of cycle
// `end` — including a partially retired head when the window closes
// mid-group.
func (b *Backend) FastRetire(now, to int64, stopAfter uint64) (end int64) {
	b.fastRetired = b.fastRetired[:0]
	w := b.cfg.RetireWidth
	c := now
	budget := w
	newCP := uint64(0)
	limit := to
	for b.nResolved > 0 && c < limit {
		head := b.at(0)
		n := head.remaining
		if n > budget {
			n = budget
		}
		head.remaining -= n
		budget -= n
		b.inflightCount -= n
		if !head.WrongPath {
			b.retired += uint64(n)
			newCP += uint64(n)
			if stopAfter > 0 && newCP >= stopAfter && c+1 < limit {
				limit = c + 1
			}
		}
		if head.remaining == 0 {
			if !head.WrongPath {
				b.retiredGroups++
				b.fastRetired = append(b.fastRetired, RetiredEvent{ID: head.ID, At: c})
			}
			b.head = (b.head + 1) & b.mask
			b.n--
			b.nResolved--
		}
		if budget == 0 {
			c++
			budget = w
		}
	}
	return limit
}

// RetiredEvents returns the correct-path groups fully retired by the last
// FastRetire call, in retirement order, each with the cycle a per-cycle
// Tick would have reported it. The slice is scratch storage owned by the
// Backend, valid until the next FastRetire call.
func (b *Backend) RetiredEvents() []RetiredEvent { return b.fastRetired }

// Squash drops every group younger than keepID (exclusive). The squashing
// branch's own group stays: its block is on the correct path; only the
// fetch stream after it was wrong.
func (b *Backend) Squash(keepID uint64) int {
	dropped := 0
	for i := 0; i < b.n; i++ {
		if b.at(i).ID > keepID {
			for j := i; j < b.n; j++ {
				b.inflightCount -= b.at(j).remaining
				dropped++
			}
			b.n = i
			if b.nResolved > b.n {
				b.nResolved = b.n
			}
			break
		}
	}
	return dropped
}

// Drain reports whether the window is empty.
func (b *Backend) Drain() bool { return b.n == 0 }
