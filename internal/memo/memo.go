// Package memo provides Cache, the one bounded memo table behind the
// simulator's image cache and warm arena and boomsimd's result cache.
//
// It imports only the standard library, so any layer may use it without
// reaching anything else in the module.
package memo

import (
	"container/list"
	"sync"
)

// Cache is a bounded, string-keyed LRU, safe for concurrent use. Inserting
// a key into a full cache evicts the least recently used entry.
//
// Do memoises a computation. Concurrent callers of one entry share a single
// call of its fn, which runs outside the cache's lock. An entry whose fn
// fails is dropped, so the error (one caller's cancellation, say) is never
// served to a later caller: the next Do computes afresh. An entry evicted
// while its fn runs still completes for the callers already holding it, and
// is not served afterwards.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; values are *entry[V]
	index    map[string]*list.Element
}

// entry is one key's slot. once runs its computation; val, err and ok are
// written under the cache's lock, and ok is set only on success.
type entry[V any] struct {
	key  string
	once sync.Once
	val  V
	err  error
	ok   bool
}

// New returns an empty Cache that holds at most capacity entries.
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{
		capacity: capacity,
		order:    list.New(),
		index:    make(map[string]*list.Element),
	}
}

// Do returns key's value, calling fn to compute it when no entry holds the
// key. A caller that finds the entry's fn still running waits for it and
// shares its result, error included.
func (c *Cache[V]) Do(key string, fn func() (V, error)) (V, error) {
	c.mu.Lock()
	el, hit := c.index[key]
	if hit {
		c.order.MoveToFront(el)
	} else {
		el = c.insert(&entry[V]{key: key})
	}
	e := el.Value.(*entry[V])
	c.mu.Unlock()
	e.once.Do(func() {
		v, err := fn()
		c.mu.Lock()
		defer c.mu.Unlock()
		e.val, e.err, e.ok = v, err, err == nil
		if err == nil {
			return
		}
		// Drop only this entry: after an eviction or an Add, the key may
		// already map to a newer one that must survive this failure.
		if el, hit := c.index[key]; hit && el.Value == e {
			c.order.Remove(el)
			delete(c.index, key)
		}
	})
	return e.val, e.err
}

// Get returns the value stored for key by Add or computed by a successful
// Do, and marks key most recently used. An entry whose fn is still running
// is a miss.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, hit := c.index[key]; hit {
		if e := el.Value.(*entry[V]); e.ok {
			c.order.MoveToFront(el)
			return e.val, true
		}
	}
	var zero V
	return zero, false
}

// Add stores v under key, replacing any entry in place, and marks key most
// recently used. Callers still waiting on a replaced entry's fn get its
// result; later callers get v.
func (c *Cache[V]) Add(key string, v V) {
	e := &entry[V]{key: key, val: v, ok: true}
	e.once.Do(func() {})
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, hit := c.index[key]; hit {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.insert(e)
}

// Len returns the number of entries, counting those whose fn is running.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// insert makes e the most recently used entry and evicts past capacity.
// c.mu must be held.
func (c *Cache[V]) insert(e *entry[V]) *list.Element {
	el := c.order.PushFront(e)
	c.index[e.key] = el
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.index, oldest.Value.(*entry[V]).key)
	}
	return el
}
