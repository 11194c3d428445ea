package bpu

import (
	"boomsim/internal/isa"
	"boomsim/internal/stats"
)

// TAGE implements the tagged-geometric-history-length predictor of Seznec &
// Michaud within the paper's 8 KB budget: a 4K-entry 2-bit bimodal base plus
// four tagged tables of 1K entries (9-bit tags, 3-bit counters, 2-bit useful
// bits) over geometric history lengths {5, 17, 44, 130}.
//
// Global history is speculative: the decoupled front end shifts a predicted
// outcome per conditional branch and restores a snapshot on squash. The
// folded index/tag registers are maintained incrementally per shift, exactly
// like the hardware circular shift registers. The raw 192-bit history and
// the 12 folded registers (one index and two tag registers per table) live
// together in spec, in the snapshot's own layout: Shift updates it in place,
// Predict reads it, and SnapshotInto and Restore are one struct copy each.
type TAGE struct {
	base []uint8 // 2-bit counters

	tables [NumTageTables][]tageEntry
	spec   HistState

	// Fold geometry: every table's index register is idxBits wide, and
	// geom holds where a shift moves each table's bits.
	idxBits uint
	geom    [NumTageTables]foldGeom

	lfsr   uint32 // deterministic allocation tie-breaking
	clock  uint32 // periodic useful-bit aging
	resets uint32
}

// Tag widths: a tag is tagBits wide and hashes two folded registers of the
// history, tagBits and tagBits-1 bits wide (per Seznec's reference
// implementation).
const (
	tagBits  = 9
	tag1Bits = tagBits - 1
)

// foldGeom locates, for one table of history length L, history bit L-1 (the
// bit falling out of the table's window on a shift) in the raw register,
// and where it re-enters each folded register (L mod its width), so the
// per-prediction Shift path performs no division.
type foldGeom struct {
	oldWord, oldBit            uint8
	idxWrap, tagWrap, tag1Wrap uint8
}

type tageEntry struct {
	tag uint16
	ctr uint8 // 3-bit: taken if >= 4
	u   uint8 // 2-bit useful
}

// fold shifts newBit into the folded register v of the given width and
// folds oldBit, the bit leaving the window, back out at position wrap.
// wrap and width are below 64; masking them with 63 tells the compiler so,
// which drops the guard it emits for longer shifts.
func fold(v, newBit, oldBit uint64, wrap, width uint) uint64 {
	v = v<<1 | newBit
	v ^= oldBit << (wrap & 63)
	v ^= v >> (width & 63)
	return v & (1<<(width&63) - 1)
}

var tageHistLens = [NumTageTables]int{5, 17, 44, 130}

// NewTAGE builds the predictor. budgetKB scales table sizes; the paper's
// configuration is 8 KB.
func NewTAGE(budgetKB int) *TAGE {
	// Scale from the 8KB reference: base 4K entries, tagged 1K each.
	scale := budgetKB
	if scale < 1 {
		scale = 1
	}
	baseEntries := 512 * scale
	tagEntries := 128 * scale
	n := pow2Floor(tagEntries)
	t := &TAGE{base: make([]uint8, pow2Floor(baseEntries)), idxBits: uint(log2(n))}
	for i := range t.base {
		t.base[i] = 1
	}
	for i, l := range tageHistLens {
		t.tables[i] = make([]tageEntry, n)
		t.geom[i] = foldGeom{
			oldWord:  uint8((l - 1) / 64),
			oldBit:   uint8((l - 1) % 64),
			idxWrap:  uint8(l % int(t.idxBits)),
			tagWrap:  uint8(l % tagBits),
			tag1Wrap: uint8(l % tag1Bits),
		}
	}
	t.lfsr = 0xACE1
	return t
}

func pow2Floor(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

func log2(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

func (t *TAGE) baseIndex(pc isa.Addr) uint32 {
	return uint32((pc >> 2) & isa.Addr(len(t.base)-1))
}

// index and tagOf hash pc with table i's folded history.
func (t *TAGE) index(i int, pc isa.Addr) uint32 {
	h := uint64(pc>>2) ^ uint64(pc)>>(t.idxBits+2) ^ t.spec.idx[i]
	return uint32(h & uint64(len(t.tables[i])-1))
}

func (t *TAGE) tagOf(i int, pc isa.Addr) uint16 {
	h := uint64(pc>>2) ^ t.spec.tg0[i] ^ t.spec.tg1[i]<<1
	return uint16(h & (1<<tagBits - 1))
}

// Predict implements Direction.
func (t *TAGE) Predict(pc isa.Addr) Prediction {
	p := Prediction{provider: -1}
	p.baseIdx = t.baseIndex(pc)
	basePred := t.base[p.baseIdx] >= 2
	p.Taken = basePred
	p.altTaken = basePred

	for i := range NumTageTables {
		p.idx[i] = t.index(i, pc)
		p.tag[i] = t.tagOf(i, pc)
	}
	// Longest-history matching component provides; next match is altpred.
	for i := NumTageTables - 1; i >= 0; i-- {
		e := &t.tables[i][p.idx[i]]
		if e.tag != p.tag[i] {
			continue
		}
		if p.provider < 0 {
			p.provider = int8(i)
			p.Taken = e.ctr >= 4
		} else {
			p.altTaken = e.ctr >= 4
			return p
		}
	}
	if p.provider >= 0 {
		p.altTaken = basePred
	}
	return p
}

// Update implements Direction: trains counters, useful bits, and allocates
// on mispredictions.
func (t *TAGE) Update(p Prediction, pc isa.Addr, taken bool) {
	correct := p.Taken == taken
	if p.provider >= 0 {
		e := &t.tables[p.provider][p.idx[p.provider]]
		// Guard against the entry having been replaced since prediction.
		if e.tag == p.tag[p.provider] {
			bump3(&e.ctr, taken)
			if p.Taken != p.altTaken {
				if correct {
					if e.u < 3 {
						e.u++
					}
				} else if e.u > 0 {
					e.u--
				}
			}
			// Train the base when the provider entry is still weak.
			if e.ctr == 3 || e.ctr == 4 {
				bump2(&t.base[p.baseIdx], taken)
			}
		} else {
			bump2(&t.base[p.baseIdx], taken)
		}
	} else {
		bump2(&t.base[p.baseIdx], taken)
	}

	if !correct {
		t.allocate(p, taken)
	}

	// Periodic useful-bit aging keeps dead entries reclaimable.
	t.clock++
	if t.clock >= 1<<18 {
		t.clock = 0
		t.resets++
		for i := range t.tables {
			for j := range t.tables[i] {
				t.tables[i][j].u >>= 1
			}
		}
	}
}

func (t *TAGE) allocate(p Prediction, taken bool) {
	start := int(p.provider) + 1
	if start >= NumTageTables {
		return
	}
	// Collect candidate tables with a non-useful victim.
	var candidates [NumTageTables]int
	n := 0
	for i := start; i < NumTageTables; i++ {
		if t.tables[i][p.idx[i]].u == 0 {
			candidates[n] = i
			n++
		}
	}
	if n == 0 {
		for i := start; i < NumTageTables; i++ {
			e := &t.tables[i][p.idx[i]]
			if e.u > 0 {
				e.u--
			}
		}
		return
	}
	// Prefer shorter history (standard TAGE bias: pick the first candidate
	// with probability 1/2, else advance), via a small LFSR for determinism.
	pick := candidates[0]
	for k := 0; k < n-1; k++ {
		if t.nextRand()&1 == 0 {
			break
		}
		pick = candidates[k+1]
	}
	e := &t.tables[pick][p.idx[pick]]
	e.tag = p.tag[pick]
	e.u = 0
	if taken {
		e.ctr = 4
	} else {
		e.ctr = 3
	}
}

func (t *TAGE) nextRand() uint32 {
	// 16-bit Fibonacci LFSR.
	bit := (t.lfsr ^ t.lfsr>>2 ^ t.lfsr>>3 ^ t.lfsr>>5) & 1
	t.lfsr = t.lfsr>>1 | bit<<15
	return t.lfsr
}

// Shift implements Direction: pushes a speculative outcome and advances all
// folded registers.
func (t *TAGE) Shift(taken bool) {
	bit := uint64(0)
	if taken {
		bit = 1
	}
	s := &t.spec
	for i := range t.geom {
		g := &t.geom[i]
		old := s.h[g.oldWord] >> (g.oldBit & 63) & 1
		s.idx[i] = fold(s.idx[i], bit, old, uint(g.idxWrap), t.idxBits)
		s.tg0[i] = fold(s.tg0[i], bit, old, uint(g.tagWrap), tagBits)
		s.tg1[i] = fold(s.tg1[i], bit, old, uint(g.tag1Wrap), tag1Bits)
	}
	s.h[2] = s.h[2]<<1 | s.h[1]>>63
	s.h[1] = s.h[1]<<1 | s.h[0]>>63
	s.h[0] = s.h[0]<<1 | bit
}

// SnapshotInto implements Direction, writing the snapshot in place (the
// engine captures one per FTQ entry; writing straight into the entry avoids
// copying the state through a temporary).
func (t *TAGE) SnapshotInto(s *HistState) { *s = t.spec }

// Restore implements Direction.
func (t *TAGE) Restore(s HistState) { t.spec = s }

// Name implements Direction.
func (t *TAGE) Name() string { return "tage" }

// StorageBits implements Direction.
func (t *TAGE) StorageBits() int {
	bits := 2 * len(t.base)
	for i := range t.tables {
		bits += (tagBits + 3 + 2) * len(t.tables[i])
	}
	return bits
}

// PublishStats registers the predictor's counters under its namespace of
// the per-component statistics registry.
func (t *TAGE) PublishStats(r *stats.Registry) {
	r.SetUint("tables", uint64(len(t.tables)))
	r.SetUint("base_entries", uint64(len(t.base)))
	r.SetUint("useful_resets", uint64(t.resets))
	r.SetUint("storage_bits", uint64(t.StorageBits()))
}

func bump2(c *uint8, taken bool) {
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

func bump3(c *uint8, taken bool) {
	if taken {
		if *c < 7 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}
