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
// like the hardware circular shift registers, so snapshots are O(1)-sized.
type TAGE struct {
	base []uint8 // 2-bit counters

	tables [NumTageTables]tageTable
	hist   histReg

	lfsr   uint32 // deterministic allocation tie-breaking
	clock  uint32 // periodic useful-bit aging
	resets uint32
}

type tageEntry struct {
	tag uint16
	ctr uint8 // 3-bit: taken if >= 4
	u   uint8 // 2-bit useful
}

type tageTable struct {
	entries []tageEntry
	histLen int
	idxBits int
	tagBits int

	// oldWord/oldBit locate history bit histLen-1 (the bit falling out of
	// this table's window on a shift), precomputed so the per-prediction
	// Shift path performs no division.
	oldWord int
	oldBit  uint

	// Incrementally folded history (circular shift registers): one for the
	// index, two for the tag (per Seznec's reference implementation).
	idxCSR, tagCSR0, tagCSR1 foldedReg
}

// histReg is a 192-bit speculative global history shift register; bit 0 is
// the most recent outcome.
type histReg [3]uint64

func (h *histReg) shift(bit uint64) {
	h[2] = h[2]<<1 | h[1]>>63
	h[1] = h[1]<<1 | h[0]>>63
	h[0] = h[0]<<1 | bit
}

// at returns history bit i (0 = newest). i must be < 192.
func (h *histReg) at(i int) uint64 {
	return (h[i/64] >> (i % 64)) & 1
}

type foldedReg struct {
	val     uint64
	origLen int    // history length being folded
	bits    int    // compressed width
	wrap    uint   // origLen % bits, precomputed off the shift path
	mask    uint64 // 1<<bits - 1, precomputed off the shift path
}

func newFoldedReg(origLen, bits int) foldedReg {
	return foldedReg{origLen: origLen, bits: bits, wrap: uint(origLen % bits), mask: 1<<uint(bits) - 1}
}

func (f *foldedReg) shift(newBit, oldBit uint64) {
	f.val = f.val<<1 | newBit
	f.val ^= oldBit << f.wrap
	f.val ^= f.val >> f.bits
	f.val &= f.mask
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
	t := &TAGE{base: make([]uint8, pow2Floor(baseEntries))}
	for i := range t.base {
		t.base[i] = 1
	}
	for i := range t.tables {
		n := pow2Floor(tagEntries)
		idxBits := log2(n)
		t.tables[i] = tageTable{
			entries: make([]tageEntry, n),
			histLen: tageHistLens[i],
			idxBits: idxBits,
			tagBits: 9,
			oldWord: (tageHistLens[i] - 1) / 64,
			oldBit:  uint((tageHistLens[i] - 1) % 64),
			idxCSR:  newFoldedReg(tageHistLens[i], idxBits),
			tagCSR0: newFoldedReg(tageHistLens[i], 9),
			tagCSR1: newFoldedReg(tageHistLens[i], 8),
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

func (tb *tageTable) index(pc isa.Addr) uint32 {
	h := uint64(pc>>2) ^ uint64(pc)>>(uint(tb.idxBits)+2) ^ tb.idxCSR.val
	return uint32(h & uint64(len(tb.entries)-1))
}

func (tb *tageTable) tagOf(pc isa.Addr) uint16 {
	h := uint64(pc>>2) ^ tb.tagCSR0.val ^ tb.tagCSR1.val<<1
	return uint16(h & (1<<tb.tagBits - 1))
}

// Predict implements Direction.
func (t *TAGE) Predict(pc isa.Addr) Prediction {
	p := Prediction{provider: -1}
	p.baseIdx = t.baseIndex(pc)
	basePred := t.base[p.baseIdx] >= 2
	p.Taken = basePred
	p.altTaken = basePred

	for i := 0; i < NumTageTables; i++ {
		tb := &t.tables[i]
		p.idx[i] = tb.index(pc)
		p.tag[i] = tb.tagOf(pc)
	}
	// Longest-history matching component provides; next match is altpred.
	for i := NumTageTables - 1; i >= 0; i-- {
		e := &t.tables[i].entries[p.idx[i]]
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
		e := &t.tables[p.provider].entries[p.idx[p.provider]]
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
			for j := range t.tables[i].entries {
				t.tables[i].entries[j].u >>= 1
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
		if t.tables[i].entries[p.idx[i]].u == 0 {
			candidates[n] = i
			n++
		}
	}
	if n == 0 {
		for i := start; i < NumTageTables; i++ {
			e := &t.tables[i].entries[p.idx[i]]
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
	e := &t.tables[pick].entries[p.idx[pick]]
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
	for i := range t.tables {
		tb := &t.tables[i]
		old := (t.hist[tb.oldWord] >> tb.oldBit) & 1
		tb.idxCSR.shift(bit, old)
		tb.tagCSR0.shift(bit, old)
		tb.tagCSR1.shift(bit, old)
	}
	t.hist.shift(bit)
}

// SnapshotInto implements Direction, writing the snapshot in place (the
// engine captures one per FTQ entry; writing straight into the entry avoids
// copying the 88-byte state through a temporary).
func (t *TAGE) SnapshotInto(s *HistState) {
	s.h = t.hist
	for i := range t.tables {
		s.idx[i] = t.tables[i].idxCSR.val
		s.tg0[i] = t.tables[i].tagCSR0.val
		s.tg1[i] = t.tables[i].tagCSR1.val
	}
}

// Restore implements Direction.
func (t *TAGE) Restore(s HistState) {
	t.hist = s.h
	for i := range t.tables {
		t.tables[i].idxCSR.val = s.idx[i]
		t.tables[i].tagCSR0.val = s.tg0[i]
		t.tables[i].tagCSR1.val = s.tg1[i]
	}
}

// Name implements Direction.
func (t *TAGE) Name() string { return "tage" }

// StorageBits implements Direction.
func (t *TAGE) StorageBits() int {
	bits := 2 * len(t.base)
	for i := range t.tables {
		perEntry := t.tables[i].tagBits + 3 + 2
		bits += perEntry * len(t.tables[i].entries)
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
