// Clone support: deep copies of prefetcher state so a warmed instance can be
// forked and advanced without perturbing the original (see internal/sim's
// warm-state arena). Prefetchers hold a reference to the hierarchy they
// issue into, so each CloneFor takes the cloned hierarchy it should target.
package prefetch

import "boomsim/internal/cache"

// CloneFor returns an independent copy issuing into hier.
func (p *NextLine) CloneFor(hier *cache.Hierarchy) *NextLine {
	c := *p
	c.hier = hier
	return &c
}

// CloneFor returns an independent deep copy issuing into hier.
func (p *DIP) CloneFor(hier *cache.Hierarchy) *DIP {
	c := *p
	c.hier = hier
	c.table = append([]dipEntry(nil), p.table...)
	c.seq = p.seq.CloneFor(hier)
	return &c
}

// CloneFor returns an independent deep copy issuing into hier: history
// buffer, index, FIFO bound, stream state and the delayed-issue queue are
// all duplicated, the history and FIFO at their written length.
func (p *Temporal) CloneFor(hier *cache.Hierarchy) *Temporal {
	c := *p
	c.hier = hier
	c.history = append([]uint64(nil), p.history...)
	c.index = p.index.Clone()
	c.indexQ = append([]uint64(nil), p.indexQ...)
	c.pending = append(make([]pendingPrefetch, 0, cap(p.pending)), p.pending...)
	return &c
}
