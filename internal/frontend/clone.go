package frontend

import (
	"boomsim/internal/bpu"
	"boomsim/internal/btb"
	"boomsim/internal/cache"
)

// CloneDeps carries the already-cloned components an engine clone is wired
// to. The engine does not know how to duplicate a scheme's hierarchy, BTB,
// direction predictor, miss handler or prefetcher — the scheme layer clones
// those (they may be shared with structures the engine never sees, like a
// fill hook) and hands them in here.
type CloneDeps struct {
	Hierarchy   *cache.Hierarchy
	Direction   bpu.Direction
	BTB         *btb.BTB
	MissHandler MissHandler
	Prefetcher  Prefetcher
}

// MissPolicy returns the engine's BTB miss handler (nil for conventional
// operation). The scheme layer uses it to decide how to duplicate the
// handler when cloning an instance.
func (e *Engine) MissPolicy() MissHandler { return e.miss }

// Clone returns an independent deep copy of the engine mid-execution: the
// clone and the original produce identical cycle-by-cycle behaviour from
// this point while sharing no mutable state.
//
// The entry pool is the delicate part: every *Entry in the FTQ, the
// in-flight window, the freelist and the fetch engine's hands points into
// entrySlab, so the copy rebuilds the slab and remaps each pointer to the
// corresponding new element (heap-fallback entries, reachable only outside
// the simulated configurations, are copied individually through the same
// map). The immutable image is shared.
func (e *Engine) Clone(d CloneDeps) *Engine {
	c := *e
	c.orc = e.orc.Clone()
	c.hier = d.Hierarchy
	c.dir = d.Direction
	c.btbs = d.BTB
	c.ras = e.ras.Clone()
	c.miss = d.MissHandler
	c.fillObs = nil
	if obs, ok := d.MissHandler.(BTBFillObserver); ok {
		c.fillObs = obs
	}
	c.pf = d.Prefetcher
	c.be = e.be.Clone()
	// A flight recorder observes one engine; a fork starts unobserved (its
	// run attaches its own recorder if asked).
	c.rec = nil

	c.entrySlab = make([]Entry, len(e.entrySlab))
	copy(c.entrySlab, e.entrySlab)
	remap := make(map[*Entry]*Entry, len(e.entrySlab))
	for i := range e.entrySlab {
		remap[&e.entrySlab[i]] = &c.entrySlab[i]
	}
	mapEntry := func(old *Entry) *Entry {
		if old == nil {
			return nil
		}
		if ne, ok := remap[old]; ok {
			return ne
		}
		ne := new(Entry)
		*ne = *old
		remap[old] = ne
		return ne
	}
	c.entryFree = make([]*Entry, len(e.entryFree), cap(e.entryFree))
	for i, p := range e.entryFree {
		c.entryFree[i] = mapEntry(p)
	}
	c.ftq = e.ftq.clone(mapEntry)
	c.inflight = e.inflight.clone(mapEntry)
	c.cur = mapEntry(e.cur)
	c.probeQ.buf = append([]uint64(nil), e.probeQ.buf...)
	return &c
}

// clone copies the ring, remapping the pointers of its live window; stale
// slots (recycled entries outside [head, head+n)) stay nil in the copy.
func (r *entryRing) clone(mapEntry func(*Entry) *Entry) entryRing {
	c := *r
	c.buf = make([]*Entry, len(r.buf))
	for i := 0; i < r.n; i++ {
		idx := (r.head + i) & r.mask
		c.buf[idx] = mapEntry(r.buf[idx])
	}
	return c
}
