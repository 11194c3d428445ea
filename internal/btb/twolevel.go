package btb

import (
	"boomsim/internal/flatmap"
	"boomsim/internal/isa"
	"boomsim/internal/stats"
)

// TwoLevelConfig sizes a hierarchical BTB (Section II-C's alternatives to
// Boomerang: the IBM z-series "Bulk Preload" design and PhantomBTB). It is
// also the declarative form a scheme config carries, hence the JSON tags.
type TwoLevelConfig struct {
	// L2Entries/L2Assoc size the large second-level BTB (Bulk Preload uses
	// 24K entries; the paper cites >200KB of storage for such designs).
	L2Entries int `json:"l2_entries"`
	L2Assoc   int `json:"l2_assoc"`
	// L2Latency is the second-level access time exposed on every L1-BTB
	// miss — the structural drawback the paper highlights. A scheme whose
	// policy sets L2InLLC pays the LLC round trip instead.
	L2Latency int64 `json:"l2_latency"`
	// PreloadLines is the spatial-preload reach: on an L2 hit, entries for
	// blocks starting within this many cache lines around the miss are
	// moved up (Bulk Preload's spatially-proximate group).
	PreloadLines int `json:"preload_lines"`
	// Temporal selects PhantomBTB-style operation: entries are grouped in
	// fill order ("temporal groups" virtualised into the LLC) and a miss
	// preloads the group that followed the entry last time.
	Temporal bool `json:"temporal,omitempty"`
	// TemporalGroup is the group size for temporal preloading.
	TemporalGroup int `json:"temporal_group,omitempty"`
}

// BulkPreloadConfig returns the z-series-style configuration: a 16K-entry
// L2 BTB at a 4-cycle access, preloading a +/-1-line spatial neighbourhood.
func BulkPreloadConfig() TwoLevelConfig {
	return TwoLevelConfig{
		L2Entries:    16384,
		L2Assoc:      4,
		L2Latency:    4,
		PreloadLines: 1,
	}
}

// PhantomBTBConfig returns the PhantomBTB-style configuration: the second
// level is virtualised into the LLC (pay the LLC round trip per miss) and
// preloads temporal groups of entries.
func PhantomBTBConfig(llcRoundTrip int64) TwoLevelConfig {
	return TwoLevelConfig{
		L2Entries:     16384,
		L2Assoc:       4,
		L2Latency:     llcRoundTrip,
		Temporal:      true,
		TemporalGroup: 6,
	}
}

// TwoLevelStats counts hierarchical-BTB activity.
type TwoLevelStats struct {
	L2Hits     uint64
	L2Misses   uint64
	Preloaded  uint64
	FillsSeen  uint64
	GroupWraps uint64
}

// TwoLevel is a hierarchical BTB miss handler: on a first-level miss it
// probes a large second level, paying its access latency, and bulk-preloads
// neighbouring entries into the first level. It implements the front-end
// engine's MissHandler contract and observes BTB fills to keep the second
// level (and, for PhantomBTB, the temporal grouping) trained.
//
// PhantomBTB's grouping storage follows occupancy, not capacity: the ring
// allocates only the slots fills have written (a slot past them reads as 0,
// like an unwritten slot of a zeroed ring), and the index grows with the
// starts it holds.
type TwoLevel struct {
	cfg TwoLevelConfig
	l1  *BTB
	l2  *BTB

	// Temporal grouping state (PhantomBTB): a ring of ringLen recent fill
	// starts, of which ring holds the written prefix, and an index from
	// entry start to its ring position.
	ring    []isa.Addr
	ringLen int
	ringPos int
	index   flatmap.Map

	stats TwoLevelStats
}

// NewTwoLevel builds the handler. l1 is the core's first-level BTB (the one
// the engine owns); preloads are inserted into it directly.
func NewTwoLevel(cfg TwoLevelConfig, l1 *BTB) *TwoLevel {
	t := &TwoLevel{
		cfg: cfg,
		l1:  l1,
		l2:  New(cfg.L2Entries, cfg.L2Assoc),
	}
	if cfg.Temporal {
		t.ringLen = max(cfg.L2Entries, 1024)
	}
	return t
}

// Stats returns activity counters.
func (t *TwoLevel) Stats() TwoLevelStats { return t.stats }

// PublishStats registers the hierarchical BTB's counters under its
// namespace of the per-component statistics registry.
func (t *TwoLevel) PublishStats(r *stats.Registry) {
	r.SetUint("l2_hits", t.stats.L2Hits)
	r.SetUint("l2_misses", t.stats.L2Misses)
	r.SetUint("preloaded", t.stats.Preloaded)
	r.SetUint("fills_seen", t.stats.FillsSeen)
	r.SetUint("group_wraps", t.stats.GroupWraps)
}

// Handle implements the MissHandler contract: probe the L2 BTB, paying its
// access latency; on a hit, preload the neighbourhood and return the entry.
func (t *TwoLevel) Handle(pc isa.Addr, now int64) (Entry, int64, bool) {
	resume := now + t.cfg.L2Latency
	e, ok := t.l2.Lookup(pc, now)
	if !ok {
		t.stats.L2Misses++
		// Conventional fall-through; the discovery at resolve time will
		// train both levels through OnBTBFill.
		return Entry{}, now, false
	}
	t.stats.L2Hits++
	if t.cfg.Temporal {
		t.preloadTemporal(pc, now)
	} else {
		t.preloadSpatial(pc, now)
	}
	return e, resume, true
}

// preloadSpatial moves L2 entries whose blocks start within PreloadLines
// cache lines of pc into the L1 BTB (Bulk Preload).
func (t *TwoLevel) preloadSpatial(pc isa.Addr, now int64) {
	span := isa.Addr(t.cfg.PreloadLines) * isa.BlockBytes
	lo := isa.BlockAddr(pc) - span
	hi := isa.BlockAddr(pc) + span + isa.BlockBytes
	for addr := lo; addr < hi; addr += isa.InstrBytes {
		if addr == pc {
			continue
		}
		if e, ok := t.l2.Lookup(addr, now); ok {
			t.l1.Insert(e, now)
			t.stats.Preloaded++
		}
	}
}

// preloadTemporal moves the fill-order successors of pc's previous
// occurrence into the L1 BTB (PhantomBTB's temporal groups).
func (t *TwoLevel) preloadTemporal(pc isa.Addr, now int64) {
	pos, ok := t.index.Get(pc)
	if !ok || t.ring[pos] != pc {
		return
	}
	for i := 1; i <= t.cfg.TemporalGroup; i++ {
		p := (int(pos) + i) % t.ringLen
		if p >= len(t.ring) {
			break // not written yet: reads as 0
		}
		start := t.ring[p]
		if start == 0 {
			break
		}
		if e, ok := t.l2.Lookup(start, now); ok {
			t.l1.Insert(e, now)
			t.stats.Preloaded++
		}
	}
}

// OnBTBFill implements the engine's fill-observer hook: every entry the
// front end learns (discovery at resolve, or Boomerang-style insert) also
// trains the second level and, for PhantomBTB, appends to the temporal
// grouping ring.
func (t *TwoLevel) OnBTBFill(e Entry, now int64) {
	t.stats.FillsSeen++
	t.l2.Insert(e, now)
	if !t.cfg.Temporal {
		return
	}
	if t.ringPos < len(t.ring) {
		t.ring[t.ringPos] = e.Start
	} else {
		t.ring = appendBounded(t.ring, e.Start, t.ringLen)
	}
	t.index.Set(e.Start, int32(t.ringPos))
	t.ringPos++
	if t.ringPos == t.ringLen {
		t.ringPos = 0
		t.stats.GroupWraps++
	}
}

// StorageKB reports the second level's dedicated storage (~84 bits/entry,
// as in the paper's BTB accounting). PhantomBTB virtualises this into the
// LLC, but the metadata volume is the same.
func (t *TwoLevel) StorageKB() int {
	return t.cfg.L2Entries * 84 / 8 / 1024
}

// firstAlloc is the slot count a growing ring allocates on its first write.
const firstAlloc = 1024

// appendBounded appends v to buf, doubling its capacity (from firstAlloc,
// and never past limit) when it is full, so a ring that fills to limit
// allocates a handful of times rather than on every append.
func appendBounded(buf []isa.Addr, v isa.Addr, limit int) []isa.Addr {
	if len(buf) == cap(buf) {
		grown := make([]isa.Addr, len(buf), min(max(2*cap(buf), firstAlloc), limit))
		copy(grown, buf)
		buf = grown
	}
	return append(buf, v)
}
