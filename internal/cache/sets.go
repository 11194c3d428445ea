package cache

import "math/bits"

// Sets is the way storage of a set-associative array: a fixed number of
// sets, each holding up to assoc ways of W. Nothing ever invalidates a way,
// so a set's valid ways are always its first fill ways.
//
// Storage follows occupancy set by set. Each set owns a chunk of one shared
// pool, found through its offset. A chunk holds the power of two at or
// above the set's fill, capped at the associativity, so an empty set holds
// no slot and a set of one way holds one. When a full chunk must take
// another way it grows in place if it ends the pool, and otherwise moves to
// the end of the pool, leaving a hole. Clone copies the chunks without
// holes or append slack, so a copy of a warmed array holds only the chunks
// its sets have filled.
type Sets[W any] struct {
	pool  []W      // set i's ways are pool[off[i] : off[i]+fill[i]]
	off   []int32  // chunk offset per set
	fill  []uint16 // valid ways per set
	assoc int
	holes int // pool slots left behind by chunks that moved
}

// NewSets returns nsets empty sets of assoc ways each; it holds only the
// per-set offsets and fills until ways are appended. The associativity may
// not exceed 65,535, the most a per-set fill count holds.
func NewSets[W any](nsets, assoc int) Sets[W] {
	if nsets <= 0 || assoc <= 0 {
		panic("cache: non-positive set geometry")
	}
	if assoc > 65535 {
		panic("cache: associativity above 65535")
	}
	// Chunks that moved leave holes of at most assoc-1 slots per set, so
	// the pool stays below 2*nsets*assoc slots, which int32 offsets reach.
	if nsets > 1<<30/assoc {
		panic("cache: more than 2^30 ways")
	}
	return Sets[W]{
		off:   make([]int32, nsets),
		fill:  make([]uint16, nsets),
		assoc: assoc,
	}
}

// Len returns the set count.
func (s *Sets[W]) Len() int { return len(s.fill) }

// Assoc returns the associativity.
func (s *Sets[W]) Assoc() int { return s.assoc }

// Set returns set i's valid ways, in way order. Writes through the slice
// update the ways in place.
func (s *Sets[W]) Set(i int) []W {
	o := int(s.off[i])
	return s.pool[o : o+int(s.fill[i])]
}

// Append adds w as set i's next way. The set must hold fewer than Assoc
// ways.
func (s *Sets[W]) Append(i int, w W) {
	n := int(s.fill[i])
	if n&(n-1) == 0 { // n is 0 or a power of two below assoc: the chunk is full
		s.grow(i, n)
	}
	s.pool[int(s.off[i])+n] = w
	s.fill[i]++
}

// grow widens set i's full chunk of n slots to the next chunk size: in
// place when it ends the pool, else as a new chunk at the pool's end.
func (s *Sets[W]) grow(i, n int) {
	size := chunkLen(n+1, s.assoc)
	o := int(s.off[i])
	if o+n == len(s.pool) {
		s.extend(size - n)
		return
	}
	end := len(s.pool)
	s.extend(size)
	copy(s.pool[end:], s.pool[o:o+n])
	s.off[i] = int32(end)
	s.holes += n
}

// extend lengthens the pool by k slots. A full pool doubles its capacity,
// so growing it to n slots allocates about 2n slots in all.
func (s *Sets[W]) extend(k int) {
	n := len(s.pool) + k
	if n > cap(s.pool) {
		s.reserve(max(n, 2*cap(s.pool)) - len(s.pool))
	}
	s.pool = s.pool[:n]
}

// reserve makes room for n more pool slots with one exact allocation, so
// the chunks that fill them do not reallocate or leave slack.
func (s *Sets[W]) reserve(n int) {
	if cap(s.pool)-len(s.pool) >= n {
		return
	}
	pool := make([]W, len(s.pool), len(s.pool)+n)
	copy(pool, s.pool)
	s.pool = pool
}

// chunkLen is the chunk size of a set holding n ways: the power of two at
// or above n, capped at assoc (also when n exceeds it), and no slot for an
// empty set.
func chunkLen(n, assoc int) int {
	if n == 0 {
		return 0
	}
	return min(1<<bits.Len(uint(n-1)), assoc)
}

// Clone returns an independent copy with the same ways in the same order
// and no append slack. A pool without holes, such as a clone's, is copied
// as it is; otherwise the chunks are laid out again in set order, chunks
// that lie back to back in s's pool copied as one run.
func (s *Sets[W]) Clone() Sets[W] {
	c := Sets[W]{
		pool:  make([]W, len(s.pool)-s.holes),
		off:   make([]int32, len(s.off)),
		fill:  append([]uint16(nil), s.fill...),
		assoc: s.assoc,
	}
	if s.holes == 0 {
		copy(c.pool, s.pool)
		copy(c.off, s.off)
		return c
	}
	at := 0
	run, from, to := 0, 0, 0 // s.pool[from:to] is still to be copied to c.pool[run:]
	for i, n := range s.fill {
		k := chunkLen(int(n), s.assoc)
		if o := int(s.off[i]); k > 0 && o != to {
			copy(c.pool[run:], s.pool[from:to])
			run, from, to = at, o, o
		}
		c.off[i] = int32(at)
		at += k
		to += k
	}
	copy(c.pool[run:], s.pool[from:to])
	return c
}
