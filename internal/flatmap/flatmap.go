// Package flatmap provides a small open-addressed hash map from uint64 keys
// to int32 values, built for the simulator's per-cycle lookup structures
// (the cache hierarchy's MSHR tags and prefetch-buffer index, the temporal
// prefetcher's region index and the two-level BTB's index). Unlike the
// built-in map it performs no allocation on lookup, insert or delete once
// grown to its steady-state size, and its iteration-free API keeps the hot
// path branch-predictable.
//
// The table uses linear probing with backward-shift deletion (no
// tombstones), so probe sequences stay short regardless of churn — exactly
// the access pattern of MSHRs, which allocate and free entries millions of
// times per simulated second.
package flatmap

const (
	// minCapacity keeps the table large enough that tiny maps do not rehash
	// on their first few inserts.
	minCapacity = 16
	// maxLoadNum/maxLoadDen is the grow threshold (13/16 ≈ 0.81).
	maxLoadNum = 13
	maxLoadDen = 16
)

// Map is an open-addressed uint64 → int32 hash map. The zero value is ready
// to use. Map is not safe for concurrent use.
type Map struct {
	keys []uint64
	vals []int32
	used []bool
	n    int
	mask uint64
}

func (m *Map) init(capacity int) {
	m.keys = make([]uint64, capacity)
	m.vals = make([]int32, capacity)
	m.used = make([]bool, capacity)
	m.n = 0
	m.mask = uint64(capacity - 1)
}

// Reserve sizes an empty map to hold n entries without growing: the
// smallest power-of-two capacity, at least minCapacity, that n entries fit
// under the load limit. A map that already holds entries is left as is.
func (m *Map) Reserve(n int) {
	if m.n > 0 {
		return
	}
	c := minCapacity
	for n*maxLoadDen > c*maxLoadNum {
		c *= 2
	}
	m.init(c)
}

// home returns the key's preferred slot (Fibonacci hashing spreads the
// line/address keys, which share low-bit structure, across the table).
func (m *Map) home(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> 32 & m.mask
}

// Len returns the number of entries.
func (m *Map) Len() int { return m.n }

// Get returns the value stored for key.
func (m *Map) Get(key uint64) (int32, bool) {
	if m.used == nil {
		return 0, false
	}
	for i := m.home(key); m.used[i]; i = (i + 1) & m.mask {
		if m.keys[i] == key {
			return m.vals[i], true
		}
	}
	return 0, false
}

// Set inserts or replaces the value for key.
func (m *Map) Set(key uint64, val int32) {
	if m.used == nil {
		m.init(minCapacity)
	}
	if (m.n+1)*maxLoadDen > len(m.keys)*maxLoadNum {
		m.grow()
	}
	i := m.home(key)
	for m.used[i] {
		if m.keys[i] == key {
			m.vals[i] = val
			return
		}
		i = (i + 1) & m.mask
	}
	m.keys[i], m.vals[i], m.used[i] = key, val, true
	m.n++
}

// Delete removes key if present, using backward-shift deletion so the table
// never accumulates tombstones.
func (m *Map) Delete(key uint64) {
	if m.used == nil {
		return
	}
	i := m.home(key)
	for {
		if !m.used[i] {
			return
		}
		if m.keys[i] == key {
			break
		}
		i = (i + 1) & m.mask
	}
	m.n--
	// Shift later entries of the same probe cluster back into the hole.
	j := i
	for {
		m.used[i] = false
		for {
			j = (j + 1) & m.mask
			if !m.used[j] {
				return
			}
			k := m.home(m.keys[j])
			// Move j's entry into the hole at i unless its home lies
			// cyclically within (i, j], in which case it is already as close
			// to home as it can get.
			inRange := false
			if i <= j {
				inRange = i < k && k <= j
			} else {
				inRange = i < k || k <= j
			}
			if !inRange {
				break
			}
		}
		m.keys[i], m.vals[i], m.used[i] = m.keys[j], m.vals[j], true
		i = j
	}
}

// Clone returns an independent deep copy of the map: same contents, same
// capacity, no shared backing storage.
func (m *Map) Clone() Map {
	c := *m
	if m.keys != nil {
		c.keys = append([]uint64(nil), m.keys...)
		c.vals = append([]int32(nil), m.vals...)
		c.used = append([]bool(nil), m.used...)
	}
	return c
}

func (m *Map) grow() {
	oldKeys, oldVals, oldUsed := m.keys, m.vals, m.used
	m.init(len(oldKeys) * 2)
	for i, u := range oldUsed {
		if u {
			m.Set(oldKeys[i], oldVals[i])
		}
	}
}
