// Package frontend implements the decoupled front end the whole evaluation
// revolves around: the branch prediction unit driving a fetch target queue
// (FTQ), the fetch engine, and FDIP's prefetch engine, with pluggable BTB
// miss policies (conventional sequential fall-through vs Boomerang's
// stall-and-predecode) and pluggable L1-I prefetchers (next-line, DIP, PIF,
// SHIFT). It executes speculatively — including real wrong-path fetch and
// prefetch activity — and verifies predictions against the workload oracle,
// squashing at branch resolution like the modelled pipeline would.
//
// # Zero-allocation contract
//
// The measured simulation loop (Engine.Tick and everything it calls)
// performs no heap allocation at steady state: FTQ entries come from a
// preallocated pool and are recycled at retirement or squash, the FTQ,
// probe queue and in-flight window are fixed rings, and the backend and
// cache hierarchy it drives use preallocated scratch storage (see their
// package comments). The bounded exceptions are the structures sized by
// occupancy: the set-associative arrays, the BTBs and the caches' tag
// stores (cache.Sets), where a set's chunk grows by appending to one shared
// pool, and the temporal prefetchers' history and index rings. Each
// reallocates a logarithmic number of times in its lifetime, mostly in the
// warm window and never once full.
// Code added to the per-cycle path must follow the same
// discipline — reuse engine-owned scratch buffers rather than allocating —
// and TestMeasureLoopAllocationFree (repo root) enforces the contract with
// testing.AllocsPerRun, and for the first window after a warm with
// runtime.ReadMemStats. Entry pointers handed out by the engine are only
// valid until the entry retires or is squashed; do not retain them.
package frontend

import (
	"boomsim/internal/btb"
	"boomsim/internal/isa"
)

// MissHandler decides what the branch prediction unit does on a genuine
// basic-block BTB miss.
//
// Conventional FDIP has no handler (nil): the front end falls through
// sequentially until the next BTB hit, discovering the hidden branch at
// resolve time. Boomerang's handler stalls the BPU, probes the L1-I for the
// cache block containing pc, predecodes it (chasing sequential blocks when
// the terminator lies further on), and returns the synthesised entry.
type MissHandler interface {
	// Handle is invoked at cycle now for a BTB miss at pc. ok=false means
	// "no resolution: proceed sequentially". ok=true returns the resolved
	// entry and the cycle the BPU may resume prediction (resumeAt >= now;
	// the engine inserts the entry into the BTB and stalls until resumeAt).
	Handle(pc isa.Addr, now int64) (entry btb.Entry, resumeAt int64, ok bool)
}

// BTBFillObserver is an optional MissHandler extension: handlers that
// maintain their own metadata (e.g. a second BTB level) implement it to see
// every entry the front end learns — discovery fills at branch resolution
// and miss-handler resolutions alike.
type BTBFillObserver interface {
	OnBTBFill(e btb.Entry, now int64)
}

// Prefetcher is an L1-I prefetcher driven by fetch-stream events. The FDIP
// prefetch engine is built into the engine itself (it needs the FTQ);
// history-based prefetchers (next-line, DIP, PIF, SHIFT) implement this.
type Prefetcher interface {
	// Name identifies the prefetcher in experiment output.
	Name() string
	// OnDemand observes every demand line access by the fetch engine.
	// miss is true when the line was not in the L1-I or prefetch buffer,
	// and class attributes the access (how the fetch stream entered the
	// line: sequentially or via a conditional/unconditional discontinuity).
	OnDemand(line uint64, miss bool, class isa.DiscontinuityClass, now int64)
	// OnRetire observes the committed (correct-path) fetch stream at line
	// granularity; temporal-streaming prefetchers record it.
	OnRetire(line uint64, now int64)
	// Tick runs once per cycle for prefetchers with internal timing (e.g.
	// SHIFT's LLC-resident metadata reads).
	Tick(now int64)
	// NextEvent returns the earliest cycle > now at which Tick will act on
	// its own (e.g. a delayed metadata replay coming due), now itself when
	// Tick has work this cycle, or cache.NoEvent when it is idle. The
	// engine's event-horizon cycle skip uses it to prove Tick is a no-op
	// across a stall window: an early (conservative) answer merely shortens
	// a skip, a late one breaks cycle accuracy.
	NextEvent(now int64) int64
}
