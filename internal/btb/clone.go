// Clone support: deep copies of BTB-side state so a warmed instance can be
// forked and advanced without perturbing the original (see internal/sim's
// warm-state arena).
package btb

import "boomsim/internal/isa"

// Clone returns an independent deep copy of the BTB: same entries, LRU state
// and counters, no shared storage, its sets laid out compactly.
func (b *BTB) Clone() *BTB {
	n := *b
	n.sets = b.sets.Clone()
	return &n
}

// Clone returns an independent deep copy of the buffer.
func (p *PrefetchBuffer) Clone() *PrefetchBuffer {
	c := *p
	c.entries = append(make([]Entry, 0, cap(p.entries)), p.entries...)
	return &c
}

// Clone returns an independent copy of the predecoder. The immutable image
// is shared; the scratch buffer (only live within a single Append* call) is
// left to regrow; the decoded-lines counter carries over so cloned runs
// report the same traffic totals a fresh warm would.
func (d *Predecoder) Clone() *Predecoder {
	return &Predecoder{img: d.img, LinesDecoded: d.LinesDecoded}
}

// Clone returns an independent deep copy of the hierarchical miss handler.
// l1 must be the clone of the first level the original preloads into — the
// caller owns that structure (the engine's BTB) and its copy.
func (t *TwoLevel) Clone(l1 *BTB) *TwoLevel {
	c := *t
	c.l1 = l1
	c.l2 = t.l2.Clone()
	c.ring = append([]isa.Addr(nil), t.ring...)
	c.index = t.index.Clone()
	return &c
}
