// Clone support: deep copies of predictor state so a warmed instance can be
// forked and advanced without perturbing the original (see internal/sim's
// warm-state arena). Every clone must be behaviourally indistinguishable
// from its source — same tables, same speculative history, same counters.
package bpu

import "boomsim/internal/isa"

// Clone returns an independent deep copy of the predictor.
func (t *TAGE) Clone() *TAGE {
	c := *t
	c.base = append([]uint8(nil), t.base...)
	for i := range c.tables {
		c.tables[i] = append([]tageEntry(nil), t.tables[i]...)
	}
	return &c
}

// Clone returns an independent deep copy of the predictor.
func (b *Bimodal) Clone() *Bimodal {
	return &Bimodal{ctr: append([]uint8(nil), b.ctr...)}
}

// Clone returns the receiver: NeverTaken is stateless, so sharing it is safe.
func (n *NeverTaken) Clone() *NeverTaken { return n }

// Clone returns an independent deep copy of the stack.
func (r *RAS) Clone() *RAS {
	c := *r
	c.buf = append([]isa.Addr(nil), r.buf...)
	return &c
}
