// Package prefetch implements the L1-I prefetchers the paper compares
// against: the next-N-line prefetcher, the discontinuity prefetcher (DIP,
// Spracklen et al.), and the temporal-streaming prefetchers PIF (private
// metadata) and SHIFT (LLC-virtualised shared metadata). All plug into the
// front-end engine through its Prefetcher hook interface.
package prefetch

import (
	"boomsim/internal/cache"
	"boomsim/internal/isa"
	"boomsim/internal/stats"
)

// NextLine prefetches the N lines following every demand access — the
// classic sequential prefetcher that covers the "sequential" share of miss
// cycles (40-54% in Figure 3) but none of the discontinuities.
type NextLine struct {
	hier *cache.Hierarchy
	n    int

	// Issued counts prefetches accepted by the hierarchy.
	Issued uint64
}

// NewNextLine builds a next-N-line prefetcher. The paper's configurations
// use next-2 (their DIP pairing found next-2 more accurate than next-4).
func NewNextLine(hier *cache.Hierarchy, n int) *NextLine {
	if n < 1 {
		n = 1
	}
	return &NextLine{hier: hier, n: n}
}

// Name implements frontend.Prefetcher.
func (p *NextLine) Name() string { return "next-line" }

// OnDemand implements frontend.Prefetcher.
func (p *NextLine) OnDemand(line uint64, miss bool, class isa.DiscontinuityClass, now int64) {
	for i := 1; i <= p.n; i++ {
		if p.hier.Prefetch(line+uint64(i), now) {
			p.Issued++
		}
	}
}

// OnRetire implements frontend.Prefetcher.
func (p *NextLine) OnRetire(uint64, int64) {}

// Tick implements frontend.Prefetcher.
func (p *NextLine) Tick(int64) {}

// NextEvent implements frontend.Prefetcher: next-line issues synchronously
// inside OnDemand, so Tick never has scheduled work.
func (p *NextLine) NextEvent(int64) int64 { return cache.NoEvent }

// PublishStats registers the prefetcher's counters under its namespace of
// the per-component statistics registry.
func (p *NextLine) PublishStats(r *stats.Registry) {
	r.SetUint("degree", uint64(p.n))
	r.SetUint("issued", p.Issued)
}

// DIP is the discontinuity prefetcher: a table keyed by the line preceding a
// control-flow discontinuity, storing the discontinuity's target line. On a
// demand access to a trigger line, the recorded target (and its successor)
// are prefetched. Spracklen et al. pair it with a sequential prefetcher; per
// the paper's methodology we use next-2-line.
type DIP struct {
	hier    *cache.Hierarchy
	table   []dipEntry
	mask    uint64
	seq     *NextLine
	prev    uint64
	havePrv bool

	// Trained counts table installs; Triggered counts prefetch activations.
	Trained   uint64
	Triggered uint64
}

// dipEntry is one table slot, 16 bytes: key holds the trigger line + 1, so
// the zero value is an empty slot.
type dipEntry struct {
	key    uint64
	target uint64
}

// NewDIP builds a discontinuity prefetcher with the given table capacity
// (8K entries for maximum coverage per the paper) and next-2-line pairing.
func NewDIP(hier *cache.Hierarchy, entries int) *DIP {
	n := 1
	for n*2 <= entries {
		n *= 2
	}
	return &DIP{
		hier:  hier,
		table: make([]dipEntry, n),
		mask:  uint64(n - 1),
		seq:   NewNextLine(hier, 2),
	}
}

// Name implements frontend.Prefetcher.
func (p *DIP) Name() string { return "dip" }

// OnDemand implements frontend.Prefetcher: trains on discontinuity misses and
// triggers on table hits.
func (p *DIP) OnDemand(line uint64, miss bool, class isa.DiscontinuityClass, now int64) {
	p.seq.OnDemand(line, miss, class, now)

	if p.havePrv {
		isDiscontinuity := line != p.prev && line != p.prev+1
		if isDiscontinuity && miss {
			p.table[p.prev&p.mask] = dipEntry{key: p.prev + 1, target: line}
			p.Trained++
		}
	}
	p.prev = line
	p.havePrv = true

	if e := &p.table[line&p.mask]; e.key == line+1 {
		p.Triggered++
		p.hier.Prefetch(e.target, now)
		p.hier.Prefetch(e.target+1, now)
	}
}

// OnRetire implements frontend.Prefetcher.
func (p *DIP) OnRetire(uint64, int64) {}

// Tick implements frontend.Prefetcher.
func (p *DIP) Tick(int64) {}

// NextEvent implements frontend.Prefetcher: DIP issues synchronously inside
// OnDemand, so Tick never has scheduled work.
func (p *DIP) NextEvent(int64) int64 { return cache.NoEvent }

// PublishStats registers the prefetcher's counters under its namespace of
// the per-component statistics registry.
func (p *DIP) PublishStats(r *stats.Registry) {
	r.SetUint("trained", p.Trained)
	r.SetUint("triggered", p.Triggered)
	r.SetUint("table_entries", uint64(len(p.table)))
	r.SetUint("seq_issued", p.seq.Issued)
}
