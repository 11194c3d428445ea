package cache

import (
	"math"

	"boomsim/internal/config"
	"boomsim/internal/flatmap"
	"boomsim/internal/stats"
)

// NoEvent is the NextEvent sentinel for "no scheduled work": there is no
// future cycle at which the component will change state on its own. The
// engine's event-horizon cycle skip treats it as +infinity.
const NoEvent = int64(math.MaxInt64)

// Level identifies where an instruction access was satisfied.
type Level uint8

const (
	// HitL1 means the line was in the L1-I.
	HitL1 Level = iota
	// HitPrefetchBuffer means the line was in the L1-I prefetch buffer.
	HitPrefetchBuffer
	// HitInFlight means an earlier (prefetch) request is outstanding; the
	// access completes when that fill arrives.
	HitInFlight
	// HitLLC means the line came from the LLC.
	HitLLC
	// HitMemory means the line came from memory beyond the LLC.
	HitMemory
)

func (l Level) String() string {
	switch l {
	case HitL1:
		return "L1"
	case HitPrefetchBuffer:
		return "PFB"
	case HitInFlight:
		return "inflight"
	case HitLLC:
		return "LLC"
	case HitMemory:
		return "mem"
	}
	return "?"
}

// HierarchyStats aggregates instruction-supply traffic.
type HierarchyStats struct {
	DemandAccesses  uint64
	DemandL1Hits    uint64
	DemandPFBHits   uint64
	DemandInFlight  uint64
	DemandLLCFills  uint64
	DemandMemFills  uint64
	Prefetches      uint64
	PrefetchDropped uint64 // MSHRs full
	LLCAccesses     uint64
	LLCMisses       uint64
	PFBEvictions    uint64
	UselessPrefetch uint64 // evicted from PFB without a demand hit
}

type mshr struct {
	line    Line
	readyAt int64
	demand  bool // at least one demand is waiting on this fill
}

// pbufEntry is one prefetch-buffer slot.
type pbufEntry struct {
	line  Line
	seq   uint64 // FIFO order
	ready int64
}

// Hierarchy is one core's instruction-supply path: L1-I + prefetch buffer +
// MSHRs in front of a shared LLC and memory. The LLC is modelled privately
// for the simulated core, with its round-trip latency taken from the
// interconnect model.
//
// MSHRs live in a preallocated slab indexed by an open-addressed line table
// and ordered by a manual index min-heap, so the per-cycle path (Tick,
// Demand, Prefetch, Fetch) performs no heap allocation at steady state.
type Hierarchy struct {
	cfg config.Core

	l1   *SetAssoc
	llc  *SetAssoc
	pbuf []pbufEntry
	pseq uint64

	// mshrSlab backs every MSHR; free lists recycled indices. mshrs maps a
	// line to its slab index; pending is a min-heap of slab indices ordered
	// by readyAt.
	mshrSlab []mshr
	mshrFree []int32
	mshrs    flatmap.Map
	pending  []int32

	// portFree is when the core's LLC port next becomes available.
	portFree int64

	// fillHook, when set, observes every completed line fill (demand or
	// prefetch). Confluence's predecode-into-BTB path attaches here.
	fillHook func(line Line, now int64)

	stats HierarchyStats
}

// SetFillHook registers a callback invoked for every line fill as it
// completes (at the fill's ready time).
func (h *Hierarchy) SetFillHook(hook func(line Line, now int64)) {
	h.fillHook = hook
}

// NewHierarchy builds the hierarchy from core parameters. llcReservedKB
// carves capacity out of the LLC (SHIFT/Confluence virtualise prefetcher
// metadata into the LLC; the paper charges them that capacity).
func NewHierarchy(cfg config.Core, llcReservedKB int) *Hierarchy {
	llcKB := cfg.LLCSizeKB - llcReservedKB
	if llcKB < 64 {
		llcKB = 64
	}
	h := &Hierarchy{
		cfg:      cfg,
		l1:       NewSetAssoc(cfg.L1ISizeKB, cfg.L1IAssoc),
		llc:      NewSetAssoc(llcKB, cfg.LLCAssoc),
		pbuf:     make([]pbufEntry, 0, cfg.PrefetchBufEntries),
		mshrSlab: make([]mshr, 0, cfg.MSHREntries+8),
		mshrFree: make([]int32, 0, cfg.MSHREntries+8),
		pending:  make([]int32, 0, cfg.MSHREntries+8),
	}
	return h
}

// Stats returns accumulated traffic counters.
func (h *Hierarchy) Stats() HierarchyStats { return h.stats }

// PublishStats registers the hierarchy's counters under its namespace of
// the per-component statistics registry.
func (h *Hierarchy) PublishStats(r *stats.Registry) {
	s := h.stats
	r.SetUint("demand_accesses", s.DemandAccesses)
	r.SetUint("demand_l1_hits", s.DemandL1Hits)
	r.SetUint("demand_pfb_hits", s.DemandPFBHits)
	r.SetUint("demand_inflight_hits", s.DemandInFlight)
	r.SetUint("demand_llc_fills", s.DemandLLCFills)
	r.SetUint("demand_mem_fills", s.DemandMemFills)
	r.SetUint("prefetches", s.Prefetches)
	r.SetUint("prefetch_dropped", s.PrefetchDropped)
	r.SetUint("llc_accesses", s.LLCAccesses)
	r.SetUint("llc_misses", s.LLCMisses)
	r.SetUint("pfb_evictions", s.PFBEvictions)
	r.SetUint("useless_prefetches", s.UselessPrefetch)
}

// Tick completes any fills that are ready at cycle now. Call once per cycle
// (cheap when nothing is pending).
func (h *Hierarchy) Tick(now int64) {
	for len(h.pending) > 0 && h.mshrSlab[h.pending[0]].readyAt <= now {
		idx := h.heapPop()
		m := &h.mshrSlab[idx]
		if cur, ok := h.mshrs.Get(m.line); !ok || cur != idx {
			h.freeMSHR(idx)
			continue // superseded
		}
		h.mshrs.Delete(m.line)
		if m.demand {
			h.l1.Insert(m.line, now)
		} else {
			h.pbufInsert(m.line, m.readyAt)
		}
		line, ready := m.line, m.readyAt
		h.freeMSHR(idx)
		if h.fillHook != nil {
			h.fillHook(line, ready)
		}
	}
}

// NextEvent returns the earliest cycle at which Tick will complete a fill —
// the readyAt of the earliest pending MSHR — or NoEvent when nothing is in
// flight. Between now and that cycle Tick is a no-op: fills are the only
// spontaneous state change the hierarchy makes (port and prefetch-buffer
// availability are watermarks evaluated on access, not timers), which is
// what lets the engine fast-forward stalled windows across it. A superseded
// heap entry may yield an earlier (conservative) cycle; that only shortens
// a skip, never corrupts one.
func (h *Hierarchy) NextEvent() int64 {
	if len(h.pending) == 0 {
		return NoEvent
	}
	return h.mshrSlab[h.pending[0]].readyAt
}

// Fetch ensures a fill for the line is under way (prefetch semantics: the
// fill lands in the prefetch buffer) and returns the cycle the line will be
// available. Unlike Prefetch it always reports a time, even when the line is
// already present or in flight, and it bypasses the MSHR occupancy cap —
// Boomerang's BTB miss probes use it, as they take priority over ordinary
// prefetch traffic through the L1-I request mux.
func (h *Hierarchy) Fetch(line Line, now int64) int64 {
	if h.l1.Contains(line) {
		return now + int64(h.cfg.L1ILatency)
	}
	if i := h.pbufFind(line); i >= 0 {
		r := h.pbuf[i].ready
		if r < now+int64(h.cfg.L1ILatency) {
			r = now + int64(h.cfg.L1ILatency)
		}
		return r
	}
	if idx, ok := h.mshrs.Get(line); ok {
		return h.mshrSlab[idx].readyAt
	}
	// BTB miss probes have demand priority at the request mux.
	ready, _ := h.fillFrom(line, now, true)
	h.allocMSHR(line, ready, false)
	h.stats.Prefetches++
	return ready
}

// Present reports whether the line would hit in L1 or the prefetch buffer at
// cycle now, without any side effects. Prefetch probes use this.
func (h *Hierarchy) Present(line Line, now int64) bool {
	if h.l1.Contains(line) {
		return true
	}
	if i := h.pbufFind(line); i >= 0 && h.pbuf[i].ready <= now {
		return true
	}
	return false
}

// InFlight reports whether a fill for the line is outstanding.
func (h *Hierarchy) InFlight(line Line) bool {
	_, ok := h.mshrs.Get(line)
	return ok
}

// Demand performs a demand fetch of the line at cycle now, returning the
// cycle the instructions are available and where they came from. A prefetch
// buffer hit promotes the line into the L1-I; an outstanding prefetch is
// upgraded to demand so its fill lands in the L1-I.
func (h *Hierarchy) Demand(line Line, now int64) (readyAt int64, src Level) {
	h.stats.DemandAccesses++
	lat := int64(h.cfg.L1ILatency)
	if h.l1.Lookup(line, now) {
		h.stats.DemandL1Hits++
		return now + lat, HitL1
	}
	if i := h.pbufFind(line); i >= 0 && h.pbuf[i].ready <= now {
		h.stats.DemandPFBHits++
		h.pbufRemove(i)
		h.l1.Insert(line, now)
		return now + lat, HitPrefetchBuffer
	}
	if idx, ok := h.mshrs.Get(line); ok {
		h.stats.DemandInFlight++
		m := &h.mshrSlab[idx]
		m.demand = true
		if m.readyAt < now+lat {
			return now + lat, HitInFlight
		}
		return m.readyAt, HitInFlight
	}
	ready, lvl := h.fillFrom(line, now, true)
	h.allocMSHR(line, ready, true)
	if lvl == HitLLC {
		h.stats.DemandLLCFills++
	} else {
		h.stats.DemandMemFills++
	}
	return ready, lvl
}

// Prefetch requests the line into the prefetch buffer. It returns false when
// no request was issued (already present, in flight, or MSHRs exhausted).
func (h *Hierarchy) Prefetch(line Line, now int64) bool {
	if h.l1.Contains(line) || h.pbufFind(line) >= 0 || h.InFlight(line) {
		return false
	}
	if h.mshrs.Len() >= h.cfg.MSHREntries {
		h.stats.PrefetchDropped++
		return false
	}
	ready, _ := h.fillFrom(line, now, false)
	h.allocMSHR(line, ready, false)
	h.stats.Prefetches++
	return true
}

// LLCRoundTrip exposes the configured LLC round-trip latency (prefetchers
// with LLC-resident metadata pay this per metadata access).
func (h *Hierarchy) LLCRoundTrip() int64 { return int64(h.cfg.LLCLatency) }

// fillFrom models the shared-LLC access: LLC hit costs the round trip, a
// miss adds the memory latency and installs the line in the LLC. Prefetch
// requests serialise on the core's LLC port/link, so bursts of (possibly
// useless) prefetch traffic delay later prefetches — the bandwidth cost the
// paper's throttled prefetch policy is designed around. Demand fills take
// priority and bypass the prefetch queue.
func (h *Hierarchy) fillFrom(line Line, now int64, demand bool) (int64, Level) {
	h.stats.LLCAccesses++
	start := now
	if !demand {
		if start < h.portFree {
			start = h.portFree
		}
		h.portFree = start + int64(h.cfg.LLCPortOccupancy)
	}
	if h.llc.Lookup(line, now) {
		return start + int64(h.cfg.LLCLatency), HitLLC
	}
	h.stats.LLCMisses++
	h.llc.Insert(line, now)
	return start + int64(h.cfg.LLCLatency+h.cfg.MemLatency), HitMemory
}

func (h *Hierarchy) allocMSHR(line Line, ready int64, demand bool) {
	var idx int32
	if n := len(h.mshrFree); n > 0 {
		idx = h.mshrFree[n-1]
		h.mshrFree = h.mshrFree[:n-1]
	} else {
		idx = int32(len(h.mshrSlab))
		h.mshrSlab = append(h.mshrSlab, mshr{})
	}
	h.mshrSlab[idx] = mshr{line: line, readyAt: ready, demand: demand}
	h.mshrs.Set(line, idx)
	h.heapPush(idx)
}

func (h *Hierarchy) freeMSHR(idx int32) {
	h.mshrFree = append(h.mshrFree, idx)
}

// heapPush/heapPop maintain pending as a binary min-heap of slab indices
// keyed by readyAt.
func (h *Hierarchy) heapPush(idx int32) {
	h.pending = append(h.pending, idx)
	i := len(h.pending) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.mshrSlab[h.pending[parent]].readyAt <= h.mshrSlab[h.pending[i]].readyAt {
			break
		}
		h.pending[parent], h.pending[i] = h.pending[i], h.pending[parent]
		i = parent
	}
}

func (h *Hierarchy) heapPop() int32 {
	top := h.pending[0]
	last := len(h.pending) - 1
	h.pending[0] = h.pending[last]
	h.pending = h.pending[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.mshrSlab[h.pending[l]].readyAt < h.mshrSlab[h.pending[smallest]].readyAt {
			smallest = l
		}
		if r < last && h.mshrSlab[h.pending[r]].readyAt < h.mshrSlab[h.pending[smallest]].readyAt {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.pending[i], h.pending[smallest] = h.pending[smallest], h.pending[i]
		i = smallest
	}
	return top
}

func (h *Hierarchy) pbufFind(line Line) int {
	for i := range h.pbuf {
		if h.pbuf[i].line == line {
			return i
		}
	}
	return -1
}

func (h *Hierarchy) pbufInsert(line Line, ready int64) {
	if h.cfg.PrefetchBufEntries == 0 {
		// No prefetch buffer configured: fill straight into the L1.
		h.l1.Insert(line, ready)
		return
	}
	if len(h.pbuf) >= h.cfg.PrefetchBufEntries {
		// FIFO eviction of the oldest entry.
		oldest := 0
		for i := range h.pbuf {
			if h.pbuf[i].seq < h.pbuf[oldest].seq {
				oldest = i
			}
		}
		h.pbufRemove(oldest)
		h.stats.PFBEvictions++
		h.stats.UselessPrefetch++
	}
	h.pseq++
	h.pbuf = append(h.pbuf, pbufEntry{line: line, seq: h.pseq, ready: ready})
}

func (h *Hierarchy) pbufRemove(i int) {
	h.pbuf[i] = h.pbuf[len(h.pbuf)-1]
	h.pbuf = h.pbuf[:len(h.pbuf)-1]
}

// WarmLLC preloads lines into the LLC at cycle 0 (checkpoint-style warmup,
// mirroring the paper's SMARTS methodology of starting from warmed
// microarchitectural state). It inserts them set by set into a tag store
// sized once for them (SetAssoc.Preload).
func (h *Hierarchy) WarmLLC(lines []Line) {
	h.llc.Preload(lines)
}
