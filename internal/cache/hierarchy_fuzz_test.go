package cache

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"boomsim/internal/config"
)

// refHierarchy is the reference Hierarchy: its prefetch buffer is a plain
// slice searched linearly, and FIFO eviction scans every entry's insertion
// stamp for the oldest. FuzzHierarchyMatchesReference holds Hierarchy's
// line-indexed buffer to it. The L1-I and LLC are refSetAssocs and the
// MSHRs a Go map over the same slab and heap as Hierarchy's, so fills
// complete in the same order, ties included.
type refHierarchy struct {
	cfg      config.Core
	l1, llc  *refSetAssoc
	pbuf     []refPbufEntry
	pseq     uint64
	mshrSlab []mshr
	mshrFree []int32
	mshrs    map[Line]int32
	pending  []int32
	portFree int64
	fills    []refFill // every fill the hook would have seen
	stats    HierarchyStats
}

type refPbufEntry struct {
	line  Line
	seq   uint64 // FIFO order
	ready int64
}

type refFill struct {
	line Line
	now  int64
}

func newRefHierarchy(cfg config.Core) *refHierarchy {
	return &refHierarchy{
		cfg:   cfg,
		l1:    newRefSetAssoc(cfg.L1ISizeKB, cfg.L1IAssoc),
		llc:   newRefSetAssoc(cfg.LLCSizeKB, cfg.LLCAssoc),
		mshrs: map[Line]int32{},
	}
}

func (h *refHierarchy) Clone() *refHierarchy {
	c := *h
	c.l1, c.llc = h.l1.Clone(), h.llc.Clone()
	c.pbuf = slices.Clone(h.pbuf)
	c.mshrSlab = slices.Clone(h.mshrSlab)
	c.mshrFree = slices.Clone(h.mshrFree)
	c.mshrs = make(map[Line]int32, len(h.mshrs))
	for k, v := range h.mshrs {
		c.mshrs[k] = v
	}
	c.pending = slices.Clone(h.pending)
	c.fills = nil
	return &c
}

func (h *refHierarchy) Tick(now int64) {
	for len(h.pending) > 0 && h.mshrSlab[h.pending[0]].readyAt <= now {
		idx := h.heapPop()
		m := h.mshrSlab[idx]
		h.mshrFree = append(h.mshrFree, idx)
		if cur, ok := h.mshrs[m.line]; !ok || cur != idx {
			continue
		}
		delete(h.mshrs, m.line)
		if m.demand {
			h.l1.Insert(m.line, now)
		} else {
			h.pbufInsert(m.line, m.readyAt)
		}
		h.fills = append(h.fills, refFill{m.line, m.readyAt})
	}
}

func (h *refHierarchy) NextEvent() int64 {
	if len(h.pending) == 0 {
		return NoEvent
	}
	return h.mshrSlab[h.pending[0]].readyAt
}

func (h *refHierarchy) Fetch(line Line, now int64) int64 {
	lat := int64(h.cfg.L1ILatency)
	if h.l1.Contains(line) {
		return now + lat
	}
	if i := h.pbufFind(line); i >= 0 {
		return max(h.pbuf[i].ready, now+lat)
	}
	if idx, ok := h.mshrs[line]; ok {
		return h.mshrSlab[idx].readyAt
	}
	ready, _ := h.fillFrom(line, now, true)
	h.allocMSHR(line, ready, false)
	h.stats.Prefetches++
	return ready
}

func (h *refHierarchy) Present(line Line, now int64) bool {
	if h.l1.Contains(line) {
		return true
	}
	i := h.pbufFind(line)
	return i >= 0 && h.pbuf[i].ready <= now
}

func (h *refHierarchy) InFlight(line Line) bool {
	_, ok := h.mshrs[line]
	return ok
}

func (h *refHierarchy) Demand(line Line, now int64) (int64, Level) {
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
	if idx, ok := h.mshrs[line]; ok {
		h.stats.DemandInFlight++
		m := &h.mshrSlab[idx]
		m.demand = true
		return max(m.readyAt, now+lat), HitInFlight
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

func (h *refHierarchy) Prefetch(line Line, now int64) bool {
	if h.l1.Contains(line) || h.pbufFind(line) >= 0 || h.InFlight(line) {
		return false
	}
	if len(h.mshrs) >= h.cfg.MSHREntries {
		h.stats.PrefetchDropped++
		return false
	}
	ready, _ := h.fillFrom(line, now, false)
	h.allocMSHR(line, ready, false)
	h.stats.Prefetches++
	return true
}

func (h *refHierarchy) fillFrom(line Line, now int64, demand bool) (int64, Level) {
	h.stats.LLCAccesses++
	start := now
	if !demand {
		start = max(start, h.portFree)
		h.portFree = start + int64(h.cfg.LLCPortOccupancy)
	}
	if h.llc.Lookup(line, now) {
		return start + int64(h.cfg.LLCLatency), HitLLC
	}
	h.stats.LLCMisses++
	h.llc.Insert(line, now)
	return start + int64(h.cfg.LLCLatency+h.cfg.MemLatency), HitMemory
}

func (h *refHierarchy) allocMSHR(line Line, ready int64, demand bool) {
	var idx int32
	if n := len(h.mshrFree); n > 0 {
		idx = h.mshrFree[n-1]
		h.mshrFree = h.mshrFree[:n-1]
	} else {
		idx = int32(len(h.mshrSlab))
		h.mshrSlab = append(h.mshrSlab, mshr{})
	}
	h.mshrSlab[idx] = mshr{line: line, readyAt: ready, demand: demand}
	h.mshrs[line] = idx
	// Binary min-heap of slab indices keyed by readyAt, as Hierarchy's.
	h.pending = append(h.pending, idx)
	for i := len(h.pending) - 1; i > 0; {
		parent := (i - 1) / 2
		if h.mshrSlab[h.pending[parent]].readyAt <= h.mshrSlab[h.pending[i]].readyAt {
			break
		}
		h.pending[parent], h.pending[i] = h.pending[i], h.pending[parent]
		i = parent
	}
}

func (h *refHierarchy) heapPop() int32 {
	top := h.pending[0]
	last := len(h.pending) - 1
	h.pending[0] = h.pending[last]
	h.pending = h.pending[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.mshrSlab[h.pending[l]].readyAt < h.mshrSlab[h.pending[smallest]].readyAt {
			smallest = l
		}
		if r < last && h.mshrSlab[h.pending[r]].readyAt < h.mshrSlab[h.pending[smallest]].readyAt {
			smallest = r
		}
		if smallest == i {
			return top
		}
		h.pending[i], h.pending[smallest] = h.pending[smallest], h.pending[i]
		i = smallest
	}
}

func (h *refHierarchy) pbufFind(line Line) int {
	for i := range h.pbuf {
		if h.pbuf[i].line == line {
			return i
		}
	}
	return -1
}

func (h *refHierarchy) pbufInsert(line Line, ready int64) {
	if h.cfg.PrefetchBufEntries == 0 {
		h.l1.Insert(line, ready)
		return
	}
	if len(h.pbuf) >= h.cfg.PrefetchBufEntries {
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
	h.pbuf = append(h.pbuf, refPbufEntry{line: line, seq: h.pseq, ready: ready})
}

func (h *refHierarchy) pbufRemove(i int) {
	h.pbuf[i] = h.pbuf[len(h.pbuf)-1]
	h.pbuf = h.pbuf[:len(h.pbuf)-1]
}

// requireSameBuffer fails unless h's prefetch buffer holds the reference's
// entries, oldest first, with the same ready cycles, its index finds each
// of them at its slot, and every other slot is on the free list.
func requireSameBuffer(t *testing.T, what string, h *Hierarchy, r *refHierarchy) {
	t.Helper()
	want := slices.Clone(r.pbuf)
	slices.SortFunc(want, func(a, b refPbufEntry) int { return cmp.Compare(a.seq, b.seq) })
	for i := range want {
		want[i].seq = 0 // the FIFO keeps order by position, not by stamp
	}
	var got []refPbufEntry
	prev := int32(-1)
	for i := h.pbufHead; i >= 0 && len(got) <= len(h.pbuf); i = h.pbuf[i].next {
		s := h.pbuf[i]
		if j, ok := h.pbufIdx.Get(s.line); !ok || j != i || s.prev != prev {
			t.Fatalf("%s: slot %d (line %d, prev %d) is indexed at %d, %v; FIFO predecessor %d", what, i, s.line, s.prev, j, ok, prev)
		}
		got = append(got, refPbufEntry{line: s.line, ready: s.ready})
		prev = i
	}
	free := 0
	for i := h.pbufFree; i >= 0 && free <= len(h.pbuf); i = h.pbuf[i].next {
		free++
	}
	if h.pbufTail != prev || h.pbufIdx.Len() != len(got) || len(got)+free != len(h.pbuf) {
		t.Fatalf("%s: tail %d, FIFO ends at %d; index holds %d lines, FIFO %d, free list %d of %d slots",
			what, h.pbufTail, prev, h.pbufIdx.Len(), len(got), free, len(h.pbuf))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: buffer (oldest first) %v, reference %v", what, got, want)
	}
}

// FuzzHierarchyMatchesReference drives Hierarchy and refHierarchy with one
// operation stream and requires the same result from every call, the same
// Stats after every operation and the same sequence of fill-hook calls.
// The configuration bytes pick a prefetch buffer of 0, 1, 2 or 64 entries,
// 1–4 MSHRs, a 1 or 2 KB L1-I of 1–4 ways, and the latencies and port
// occupancy. Each operation is three bytes, kind, argument and line:
//
//   - kind&7 picks Demand, Prefetch, Fetch, Present, InFlight, NextEvent,
//     Tick or Clone, and kind>>3 which live copy (the original or a clone,
//     up to four) it drives;
//   - Tick advances that copy's clock by argument&31 cycles and completes
//     the fills due, as the engine ticks once per cycle before its other
//     calls; the other calls run at the copy's current cycle, except Fetch,
//     which runs argument&63 cycles ahead, as Boomerang chains the probes
//     of a BTB miss;
//   - lines range over 128, enough to fill and evict a 64-entry buffer
//     next to a full L1-I.
//
// Clone forks both models and every copy keeps being driven on its own; a
// clone sharing its buffer slots with its original fails at once.
func FuzzHierarchyMatchesReference(f *testing.F) {
	// The seeds mix operations about as the engine does: mostly prefetches
	// and ticks, some demands and probes, a clone in a hundred, so that
	// even the 64-entry buffer fills and evicts before the stream ends.
	rng := rand.New(rand.NewPCG(25, 1))
	for n := range 8 {
		var ops []byte
		for range 3000 {
			var kind byte
			switch r := rng.UintN(100); {
			case r < 45:
				kind = 1 // Prefetch
			case r < 65:
				kind = 6 // Tick
			case r < 72:
				kind = 0 // Demand
			case r < 80:
				kind = 2 // Fetch
			case r < 90:
				kind = 3 // Present
			case r < 95:
				kind = 4 // InFlight
			case r < 99:
				kind = 5 // NextEvent
			default:
				kind = 7 // Clone
			}
			ops = append(ops, kind|byte(rng.UintN(32))<<3, byte(rng.UintN(256)), byte(rng.UintN(256)))
		}
		// Seed n has a buffer of {0, 1, 2, 64}[n%4] entries and n%4+1 MSHRs;
		// seeds 4–7 have no memory latency, so every fill costs one LLC round
		// trip.
		latSel := uint8(rng.UintN(256))
		if n >= 4 {
			latSel &^= 0x30
		}
		f.Add(uint8(n), uint8(n%4)|uint8(rng.UintN(64))<<2, latSel, ops)
	}
	f.Fuzz(func(t *testing.T, bufSel, mshrSel, latSel uint8, ops []byte) {
		cfg := config.Default()
		cfg.PrefetchBufEntries = []int{0, 1, 2, 64}[bufSel%4]
		cfg.MSHREntries = 1 + int(mshrSel%4)
		cfg.L1IAssoc = 1 + int(mshrSel>>2%4)
		cfg.L1ISizeKB = 1 + int(mshrSel>>4%2)
		cfg.L1ILatency = 1 + int(latSel%3)
		cfg.LLCLatency = 4 + int(latSel>>2%4)*6
		cfg.MemLatency = int(latSel>>4%4) * 20
		cfg.LLCPortOccupancy = int(latSel >> 6)
		cfg.LLCSizeKB = 64 // the smallest LLC NewHierarchy builds
		type copyPair struct {
			h   *Hierarchy
			r   *refHierarchy
			log []refFill
			now int64
		}
		attach := func(p *copyPair) {
			p.h.SetFillHook(func(line Line, now int64) { p.log = append(p.log, refFill{line, now}) })
		}
		live := []*copyPair{{h: NewHierarchy(cfg, 0), r: newRefHierarchy(cfg)}}
		attach(live[0])
		for i := 0; i+2 < len(ops); i += 3 {
			kind, arg, line := ops[i], int64(ops[i+1]), Line(ops[i+2]%128)
			p := live[int(kind>>3)%len(live)]
			what := fmt.Sprintf("op %d at cycle %d", i/3, p.now)
			switch kind & 7 {
			case 0:
				gr, gl := p.h.Demand(line, p.now)
				wr, wl := p.r.Demand(line, p.now)
				if gr != wr || gl != wl {
					t.Fatalf("%s: Demand(%d) = %d, %v; reference %d, %v", what, line, gr, gl, wr, wl)
				}
			case 1:
				if got, want := p.h.Prefetch(line, p.now), p.r.Prefetch(line, p.now); got != want {
					t.Fatalf("%s: Prefetch(%d) = %v, reference %v", what, line, got, want)
				}
			case 2:
				at := p.now + arg&63
				if got, want := p.h.Fetch(line, at), p.r.Fetch(line, at); got != want {
					t.Fatalf("%s: Fetch(%d, %d) = %d, reference %d", what, line, at, got, want)
				}
			case 3:
				if got, want := p.h.Present(line, p.now), p.r.Present(line, p.now); got != want {
					t.Fatalf("%s: Present(%d) = %v, reference %v", what, line, got, want)
				}
			case 4:
				if got, want := p.h.InFlight(line), p.r.InFlight(line); got != want {
					t.Fatalf("%s: InFlight(%d) = %v, reference %v", what, line, got, want)
				}
			case 5:
				if got, want := p.h.NextEvent(), p.r.NextEvent(); got != want {
					t.Fatalf("%s: NextEvent() = %d, reference %d", what, got, want)
				}
			case 6:
				p.now += arg & 31
				p.h.Tick(p.now)
				p.r.Tick(p.now)
			case 7:
				if len(live) == 4 {
					continue
				}
				c := &copyPair{h: p.h.Clone(), r: p.r.Clone(), now: p.now}
				if sharesArray(c.h.pbuf, p.h.pbuf) {
					t.Fatalf("%s: Clone shares prefetch-buffer slots with its original", what)
				}
				attach(c)
				live = append(live, c)
			}
			if got, want := p.h.Stats(), p.r.stats; got != want {
				t.Fatalf("%s: Stats() = %+v, reference %+v", what, got, want)
			}
			if !slices.Equal(p.log, p.r.fills) {
				t.Fatalf("%s: fill hook saw %v, reference %v", what, p.log, p.r.fills)
			}
			p.log, p.r.fills = p.log[:0], p.r.fills[:0]
			requireSameBuffer(t, what, p.h, p.r)
		}
	})
}
