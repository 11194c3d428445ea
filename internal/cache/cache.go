// Package cache models the instruction-side memory hierarchy: a generic
// set-associative cache, the L1-I with its prefetch buffer and MSHRs, and a
// shared LLC backed by memory. Timing is expressed as absolute cycle numbers:
// an access at cycle t returns the cycle its data is ready, so in-flight
// prefetches naturally provide partial latency coverage — the effect the
// paper's "stall cycles covered" metric is designed to capture.
package cache

import (
	"fmt"

	"boomsim/internal/isa"
)

// Line is a cache-line index (address / 64).
type Line = uint64

// LineOf maps an instruction address to its line index.
func LineOf(pc isa.Addr) Line { return pc / isa.BlockBytes }

// way is one valid tag. A set's valid ways are always its first fill[set]
// slots: nothing invalidates a line, so the occupied ways stay a prefix of
// the set.
type way struct {
	tag     uint64
	lastUse int64
}

// SetAssoc is a set-associative cache with true-LRU replacement over line
// indices. It stores presence only (instruction caches are read-only here).
// Ways live in one flat backing array indexed arithmetically — set lookup is
// pure address math, with no per-set slice header to chase on the hot path.
//
// Storage follows occupancy, not capacity: the backing array holds stride
// slots per set, starting at min(assoc, 2) and doubling (up to assoc) the
// first time any set outgrows it. A 512 KB image preloaded into the 8 MB
// LLC leaves at most 2 lines in any set on every built-in profile, so that
// LLC keeps 2 slots per set instead of 16. Replacement does not depend on
// the layout.
type SetAssoc struct {
	ways    []way   // set s owns ways[s*stride : s*stride+fill[s]]
	fill    []uint8 // valid ways per set
	stride  int
	assoc   int
	nsets   uint64
	isPow2  bool
	setMask uint64
}

// NewSetAssoc builds a cache of the given capacity with sets =
// size/(assoc*line). Power-of-two set counts index with a mask; other set
// counts (e.g. an LLC with capacity carved out for prefetcher metadata)
// index by modulo so the configured capacity is preserved exactly. The
// associativity may not exceed 255, the most a per-set fill count holds.
func NewSetAssoc(sizeKB, assoc int) *SetAssoc {
	if sizeKB <= 0 || assoc <= 0 {
		panic("cache: non-positive geometry")
	}
	if assoc > 255 {
		panic("cache: associativity above 255")
	}
	lines := sizeKB * 1024 / isa.BlockBytes
	nsets := lines / assoc
	if nsets == 0 {
		nsets = 1
	}
	stride := min(assoc, 2)
	return &SetAssoc{
		ways:    make([]way, nsets*stride),
		fill:    make([]uint8, nsets),
		stride:  stride,
		assoc:   assoc,
		nsets:   uint64(nsets),
		isPow2:  nsets&(nsets-1) == 0,
		setMask: uint64(nsets - 1),
	}
}

// Ways returns the associativity.
func (c *SetAssoc) Ways() int { return c.assoc }

// Sets returns the set count.
func (c *SetAssoc) Sets() int { return int(c.nsets) }

// Lines returns total capacity in lines.
func (c *SetAssoc) Lines() int { return int(c.nsets) * c.assoc }

// set returns the set line maps to and that set's valid ways.
func (c *SetAssoc) set(line Line) (int, []way) {
	var idx int
	if c.isPow2 {
		idx = int(line & c.setMask)
	} else {
		idx = int(line % c.nsets)
	}
	base := idx * c.stride
	return idx, c.ways[base : base+int(c.fill[idx])]
}

// Lookup checks for the line, refreshing its LRU position on a hit.
func (c *SetAssoc) Lookup(line Line, now int64) bool {
	_, s := c.set(line)
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
	_, s := c.set(line)
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
	idx, s := c.set(line)
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
	if n := len(s); n < c.assoc {
		if n == c.stride {
			c.grow()
		}
		c.ways[idx*c.stride+n] = way{tag: line, lastUse: now}
		c.fill[idx]++
		return 0, false
	}
	victim = s[lru].tag
	s[lru] = way{tag: line, lastUse: now}
	return victim, true
}

// grow doubles the slots per set, up to the associativity, moving each
// set's valid ways to the front of its wider slot range.
func (c *SetAssoc) grow() {
	stride := min(2*c.stride, c.assoc)
	ways := make([]way, int(c.nsets)*stride)
	for s, n := range c.fill {
		copy(ways[s*stride:], c.ways[s*c.stride:s*c.stride+int(n)])
	}
	c.ways, c.stride = ways, stride
}

func (c *SetAssoc) String() string {
	return fmt.Sprintf("cache{%d sets x %d ways}", c.Sets(), c.Ways())
}
