// Package btb implements the basic-block-oriented branch target buffer the
// paper builds Boomerang on (after Yeh & Patt), the FIFO BTB prefetch buffer,
// and the cache-line predecoder that extracts branches from fetched blocks.
//
// A basic-block BTB stores one entry per basic block, keyed by the block's
// start address; each entry names the block's terminating branch (size, kind,
// target). Its crucial property (Section IV-B of the paper): a lookup that
// misses is a *genuine* BTB miss — unlike an instruction-indexed BTB, it can
// never be confused with "this instruction is not a branch".
package btb

import (
	"boomsim/internal/cache"
	"boomsim/internal/isa"
	"boomsim/internal/program"
	"boomsim/internal/stats"
)

// Entry is one basic-block BTB entry.
type Entry struct {
	// Start is the basic block start address (the tag).
	Start isa.Addr
	// NInstr is the block length in instructions, terminator included.
	NInstr uint16
	// Kind classifies the terminating branch.
	Kind isa.BranchKind
	// Target is the predicted taken-target. For direct branches it comes
	// from the encoding; for indirect branches it is the last observed
	// target (zero until first resolution).
	Target isa.Addr
}

// FallThrough returns the address after the block.
func (e *Entry) FallThrough() isa.Addr {
	return e.Start + isa.Addr(e.NInstr)*isa.InstrBytes
}

// BranchPC returns the terminator address.
func (e *Entry) BranchPC() isa.Addr {
	return e.Start + isa.Addr(e.NInstr-1)*isa.InstrBytes
}

// btbWay is one valid entry.
type btbWay struct {
	entry   Entry
	lastUse int64
}

// BTB is a set-associative basic-block BTB with LRU replacement. Set lookup
// is pure address math: an offset and a fill count per set locate the
// set's valid entries in one shared pool, with no per-set slice header to
// chase on the hot path, and a lookup scans only the filled ways.
//
// Storage follows occupancy set by set (cache.Sets): a set holds only the
// chunk its filled ways need, so a BTB holds 6 bytes per set until entries
// are written. Confluence's 16K-entry BTB holds about 1,100 entries after a
// 50K-instruction warm on a 512 KB image.
type BTB struct {
	sets    cache.Sets[btbWay]
	setMask uint64
	hits    uint64
	misses  uint64
}

// New builds a BTB with ~entries capacity at the given associativity (set
// count rounds down to a power of two). The associativity may not exceed
// 65,535, the most a per-set fill count holds.
func New(entries, assoc int) *BTB {
	if entries <= 0 || assoc <= 0 {
		panic("btb: non-positive geometry")
	}
	nsets := entries / assoc
	if nsets == 0 {
		nsets = 1
	}
	p := 1
	for p*2 <= nsets {
		p *= 2
	}
	nsets = p
	return &BTB{
		sets:    cache.NewSets[btbWay](nsets, assoc),
		setMask: uint64(nsets - 1),
	}
}

// Entries returns total capacity.
func (b *BTB) Entries() int { return b.sets.Len() * b.sets.Assoc() }

// index returns the set start maps to.
func (b *BTB) index(start isa.Addr) int {
	return int((uint64(start) >> 2) & b.setMask)
}

// Lookup returns the entry for the basic block starting at start. A miss is
// a genuine BTB miss (basic-block organisation).
func (b *BTB) Lookup(start isa.Addr, now int64) (Entry, bool) {
	s := b.sets.Set(b.index(start))
	for i := range s {
		if s[i].entry.Start == start {
			s[i].lastUse = now
			b.hits++
			return s[i].entry, true
		}
	}
	b.misses++
	return Entry{}, false
}

// Contains probes without LRU or counter side effects.
func (b *BTB) Contains(start isa.Addr) bool {
	s := b.sets.Set(b.index(start))
	for i := range s {
		if s[i].entry.Start == start {
			return true
		}
	}
	return false
}

// Insert installs or refreshes an entry: it fills the set's first free way,
// or else evicts the LRU way (ties going to the lowest way).
func (b *BTB) Insert(e Entry, now int64) {
	idx := b.index(e.Start)
	s := b.sets.Set(idx)
	lru := 0
	for i := range s {
		if s[i].entry.Start == e.Start {
			// Refresh: keep a learned indirect target if the incoming entry
			// (e.g. from a predecoder) does not know one.
			if e.Target == 0 && s[i].entry.Target != 0 {
				e.Target = s[i].entry.Target
			}
			s[i].entry = e
			s[i].lastUse = now
			return
		}
		if s[i].lastUse < s[lru].lastUse {
			lru = i
		}
	}
	if len(s) < b.sets.Assoc() {
		b.sets.Append(idx, btbWay{entry: e, lastUse: now})
		return
	}
	s[lru] = btbWay{entry: e, lastUse: now}
}

// UpdateTarget trains the stored target of an existing entry (indirect
// branch resolution). It is a no-op if the entry is gone.
func (b *BTB) UpdateTarget(start, target isa.Addr, now int64) {
	s := b.sets.Set(b.index(start))
	for i := range s {
		if s[i].entry.Start == start {
			s[i].entry.Target = target
			s[i].lastUse = now
			return
		}
	}
}

// Stats returns lifetime Lookup hit/miss counts.
func (b *BTB) Stats() (hits, misses uint64) { return b.hits, b.misses }

// PublishStats registers the BTB's counters under its namespace of the
// per-component statistics registry.
func (b *BTB) PublishStats(r *stats.Registry) {
	r.SetUint("hits", b.hits)
	r.SetUint("misses", b.misses)
	r.SetUint("entries", uint64(b.Entries()))
}

// PrefetchBuffer is Boomerang's small FIFO buffer holding predecoded BTB
// entries. It is probed in parallel with the BTB; a hit moves the entry into
// the BTB (the caller does the move); entries are replaced first-in
// first-out.
type PrefetchBuffer struct {
	entries  []Entry
	capacity int
}

// NewPrefetchBuffer builds a buffer with the given capacity (32 in the
// paper's evaluated design). A zero capacity buffer accepts nothing.
func NewPrefetchBuffer(capacity int) *PrefetchBuffer {
	return &PrefetchBuffer{capacity: capacity}
}

// Insert appends an entry, evicting the oldest when full. Duplicate starts
// replace in place.
func (p *PrefetchBuffer) Insert(e Entry) {
	if p.capacity == 0 {
		return
	}
	for i := range p.entries {
		if p.entries[i].Start == e.Start {
			p.entries[i] = e
			return
		}
	}
	if len(p.entries) >= p.capacity {
		copy(p.entries, p.entries[1:])
		p.entries = p.entries[:len(p.entries)-1]
	}
	p.entries = append(p.entries, e)
}

// Take removes and returns the entry for start, if buffered.
func (p *PrefetchBuffer) Take(start isa.Addr) (Entry, bool) {
	for i := range p.entries {
		if p.entries[i].Start == start {
			e := p.entries[i]
			p.entries = append(p.entries[:i], p.entries[i+1:]...)
			return e, true
		}
	}
	return Entry{}, false
}

// Len returns the current occupancy.
func (p *PrefetchBuffer) Len() int { return len(p.entries) }

// Predecoder extracts branch metadata from fetched cache lines. In hardware
// this decodes raw instruction bytes; here the static image plays the role
// of the bytes. Crucially it only exposes what an encoding carries: direct
// targets yes, indirect targets no.
//
// The Append* methods write into caller-provided buffers so per-miss
// predecode can reuse scratch storage; DecodeLine/ResolveMiss are
// allocating conveniences layered on top of them.
type Predecoder struct {
	img *program.Image
	// brScratch backs AppendLine's intermediate branch list.
	brScratch []program.PredecodedBranch
	// LinesDecoded counts predecoded cache lines (energy/traffic proxy).
	LinesDecoded uint64
}

// PublishStats registers the predecoder's counters under its namespace of
// the per-component statistics registry.
func (d *Predecoder) PublishStats(r *stats.Registry) {
	r.SetUint("lines_decoded", d.LinesDecoded)
}

// NewPredecoder wraps an image.
func NewPredecoder(img *program.Image) *Predecoder {
	return &Predecoder{img: img}
}

// AppendLine appends the BTB entries for every branch in the cache line
// holding lineAddr, in address order, and returns the extended slice.
func (d *Predecoder) AppendLine(dst []Entry, lineAddr isa.Addr) []Entry {
	d.LinesDecoded++
	d.brScratch = d.img.AppendBranchesInLine(d.brScratch[:0], lineAddr)
	for _, br := range d.brScratch {
		dst = append(dst, Entry{
			Start:  br.BlockStart,
			NInstr: br.NInstr,
			Kind:   br.Kind,
			Target: br.Target,
		})
	}
	return dst
}

// DecodeLine is AppendLine into a fresh slice.
func (d *Predecoder) DecodeLine(lineAddr isa.Addr) []Entry {
	return d.AppendLine(make([]Entry, 0, 4), lineAddr)
}

// AppendResolveMiss implements the paper's BTB-miss resolution scan (Section
// IV-B): starting from the missing entry's start address, find the first
// terminating branch at or after it, probing successive sequential lines as
// needed. It returns the synthesised entry for the missing block, the other
// entries predecoded along the way appended to extras (for the BTB prefetch
// buffer), and the cache lines that had to be fetched appended to lines (the
// caller charges their latency). maxLines bounds the scan. Both slices grow
// from whatever the caller passes in, so a reused scratch buffer makes the
// scan allocation-free at steady state.
func (d *Predecoder) AppendResolveMiss(start isa.Addr, maxLines int, extras []Entry, lines []isa.Addr) (Entry, []Entry, []isa.Addr) {
	line := isa.BlockAddr(start)
	for n := 0; n < maxLines; n++ {
		lines = append(lines, line)
		d.LinesDecoded++
		d.brScratch = d.img.AppendBranchesInLine(d.brScratch[:0], line)
		var missing Entry
		found := false
		for _, br := range d.brScratch {
			e := Entry{
				Start:  br.BlockStart,
				NInstr: br.NInstr,
				Kind:   br.Kind,
				Target: br.Target,
			}
			pc := br.PC
			switch {
			case pc < start:
				extras = append(extras, e)
			case !found:
				// First branch at/after start terminates the missing block.
				missing = Entry{
					Start:  start,
					NInstr: uint16((pc-start)/isa.InstrBytes) + 1,
					Kind:   e.Kind,
					Target: e.Target,
				}
				found = true
			default:
				extras = append(extras, e)
			}
		}
		if found {
			return missing, extras, lines
		}
		line += isa.BlockBytes
	}
	// Scan bound exceeded (start points into a data region or past the
	// text segment on a wild wrong path). Return a degenerate sequential
	// entry so the front end can make progress.
	return Entry{}, extras, lines
}

// ResolveMiss is AppendResolveMiss into fresh slices.
func (d *Predecoder) ResolveMiss(start isa.Addr, maxLines int) (missing Entry, extras []Entry, lines []isa.Addr) {
	return d.AppendResolveMiss(start, maxLines, nil, nil)
}
