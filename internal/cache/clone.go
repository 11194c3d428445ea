package cache

// Clone returns an independent deep copy of the cache: same contents and
// LRU state, no shared storage, its sets laid out compactly.
func (c *SetAssoc) Clone() *SetAssoc {
	n := *c
	n.sets = c.sets.Clone()
	return &n
}

// Clone returns an independent deep copy of the hierarchy: caches, prefetch
// buffer, MSHR state and counters all duplicated, so advancing the clone
// never perturbs the original. The fill hook is NOT carried over — it is a
// closure owned by the scheme that installed it, which must re-attach one
// bound to the cloned components (see scheme.Instance.Clone).
func (h *Hierarchy) Clone() *Hierarchy {
	c := *h
	c.l1 = h.l1.Clone()
	c.llc = h.llc.Clone()
	c.pbuf = append([]pbufSlot(nil), h.pbuf...)
	c.pbufIdx = h.pbufIdx.Clone()
	c.mshrSlab = append(make([]mshr, 0, cap(h.mshrSlab)), h.mshrSlab...)
	c.mshrFree = append(make([]int32, 0, cap(h.mshrFree)), h.mshrFree...)
	c.mshrs = h.mshrs.Clone()
	c.pending = append(make([]int32, 0, cap(h.pending)), h.pending...)
	c.fillHook = nil
	return &c
}
