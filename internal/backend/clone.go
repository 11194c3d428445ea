package backend

// Clone returns an independent deep copy of the window: same in-flight
// groups, retire counters and ring geometry, no shared storage. The scratch
// slices Tick reuses are transient (valid only until the next Tick), so the
// clone gets fresh ones at the original capacity and stays allocation-free
// at steady state.
func (b *Backend) Clone() *Backend {
	c := *b
	c.win = append(make([]inflight, 0, cap(b.win)), b.win...)
	c.resolvedScratch = make([]uint64, 0, cap(b.resolvedScratch))
	c.retiredScratch = make([]uint64, 0, cap(b.retiredScratch))
	c.fastRetired = make([]RetiredEvent, 0, cap(b.fastRetired))
	return &c
}
