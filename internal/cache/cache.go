// Package cache models the instruction-side memory hierarchy: a generic
// set-associative cache, the L1-I with its prefetch buffer and MSHRs, and a
// shared LLC backed by memory. Timing is expressed as absolute cycle numbers:
// an access at cycle t returns the cycle its data is ready, so in-flight
// prefetches naturally provide partial latency coverage — the effect the
// paper's "stall cycles covered" metric is designed to capture.
package cache

import (
	"fmt"
	"slices"

	"boomsim/internal/isa"
)

// Line is a cache-line index (address / 64).
type Line = uint64

// LineOf maps an instruction address to its line index.
func LineOf(pc isa.Addr) Line { return pc / isa.BlockBytes }

// way is one valid tag.
type way struct {
	tag     uint64
	lastUse int64
}

// SetAssoc is a set-associative cache with true-LRU replacement over line
// indices. It stores presence only (instruction caches are read-only here).
// Set lookup is pure address math: an offset and a fill count per set
// locate the set's valid ways in one shared pool, with no per-set slice
// header to chase on the hot path.
//
// Storage follows occupancy set by set (see Sets): a set holds only the
// chunk its filled ways need. A 512 KB image preloaded into the 8 MB LLC
// leaves one line in almost every set, so that LLC keeps about one slot per
// set instead of 16. Replacement does not depend on the layout.
type SetAssoc struct {
	sets    Sets[way]
	nsets   uint64
	isPow2  bool
	setMask uint64
}

// NewSetAssoc builds a cache of the given capacity with sets =
// size/(assoc*line). Power-of-two set counts index with a mask; other set
// counts (e.g. an LLC with capacity carved out for prefetcher metadata)
// index by modulo so the configured capacity is preserved exactly. The
// associativity may not exceed 65,535, the most a per-set fill count holds.
func NewSetAssoc(sizeKB, assoc int) *SetAssoc {
	if sizeKB <= 0 || assoc <= 0 {
		panic("cache: non-positive geometry")
	}
	lines := sizeKB * 1024 / isa.BlockBytes
	nsets := lines / assoc
	if nsets == 0 {
		nsets = 1
	}
	return &SetAssoc{
		sets:    NewSets[way](nsets, assoc),
		nsets:   uint64(nsets),
		isPow2:  nsets&(nsets-1) == 0,
		setMask: uint64(nsets - 1),
	}
}

// Ways returns the associativity.
func (c *SetAssoc) Ways() int { return c.sets.Assoc() }

// Sets returns the set count.
func (c *SetAssoc) Sets() int { return int(c.nsets) }

// Lines returns total capacity in lines.
func (c *SetAssoc) Lines() int { return int(c.nsets) * c.sets.Assoc() }

// index returns the set line maps to.
func (c *SetAssoc) index(line Line) int {
	if c.isPow2 {
		return int(line & c.setMask)
	}
	return int(line % c.nsets)
}

// Lookup checks for the line, refreshing its LRU position on a hit.
func (c *SetAssoc) Lookup(line Line, now int64) bool {
	s := c.sets.Set(c.index(line))
	for i := range s {
		if s[i].tag == line {
			s[i].lastUse = now
			return true
		}
	}
	return false
}

// Contains probes without perturbing LRU (prefetch probes use this so
// probing does not distort replacement).
func (c *SetAssoc) Contains(line Line) bool {
	s := c.sets.Set(c.index(line))
	for i := range s {
		if s[i].tag == line {
			return true
		}
	}
	return false
}

// Insert fills the line into the set's first free way, or else evicts the
// LRU way (ties going to the lowest way). It returns the victim line when a
// valid entry was displaced.
func (c *SetAssoc) Insert(line Line, now int64) (victim Line, evicted bool) {
	idx := c.index(line)
	s := c.sets.Set(idx)
	lru := 0
	for i := range s {
		if s[i].tag == line {
			s[i].lastUse = now // already present; refresh
			return 0, false
		}
		if s[i].lastUse < s[lru].lastUse {
			lru = i
		}
	}
	if len(s) < c.sets.Assoc() {
		c.sets.Append(idx, way{tag: line, lastUse: now})
		return 0, false
	}
	victim = s[lru].tag
	s[lru] = way{tag: line, lastUse: now}
	return victim, true
}

// Preload inserts lines as Insert(line, 0) would, one after another, but
// set by set: the lines are grouped by set, keeping their order within
// each set, and the pool is sized once for every chunk they can fill. Each
// set's chunk is then the last in the pool while its lines go in, so an
// empty cache preloaded with distinct lines ends with no holes and no
// append slack.
func (c *SetAssoc) Preload(lines []Line) {
	// end[i+1] counts set i's lines, then becomes the end of its group in
	// grouped; placing lines from the back makes it the group's start.
	end := make([]int32, c.nsets+1)
	for _, l := range lines {
		end[c.index(l)+1]++
	}
	room := 0
	for i := range c.Sets() {
		if k := int(end[i+1]); k > 0 {
			room += chunkLen(int(c.sets.fill[i])+k, c.sets.assoc)
		}
		end[i+1] += end[i]
	}
	grouped := make([]Line, len(lines))
	for _, l := range slices.Backward(lines) {
		i := c.index(l) + 1
		end[i]--
		grouped[end[i]] = l
	}
	c.sets.reserve(room)
	for _, l := range grouped {
		c.Insert(l, 0)
	}
}

func (c *SetAssoc) String() string {
	return fmt.Sprintf("cache{%d sets x %d ways}", c.Sets(), c.Ways())
}
