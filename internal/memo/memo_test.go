package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLRUOrderBoundAndReplace pins recency order, the bound and
// replace-in-place without any computation.
func TestLRUOrderBoundAndReplace(t *testing.T) {
	c := New[int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	if _, ok := c.Get("a"); !ok { // touch: a is now most recent
		t.Fatal("a missing")
	}
	c.Add("c", 3) // evicts b, the least recently used
	if _, ok := c.Get("b"); ok {
		t.Errorf("b survived eviction; LRU order not respected")
	}
	if _, ok := c.Get("a"); !ok {
		t.Errorf("recently-used a was evicted")
	}
	if c.Len() != 2 {
		t.Errorf("cache len %d, want 2", c.Len())
	}
	c.Add("c", 33) // update in place, no growth
	if v, _ := c.Get("c"); v != 33 || c.Len() != 2 {
		t.Errorf("update in place failed: v=%v len=%d", v, c.Len())
	}
	v, err := c.Do("c", func() (int, error) { return 0, errors.New("fn ran for a stored key") })
	if v != 33 || err != nil {
		t.Errorf("Do on an added key = %v, %v; want 33, nil", v, err)
	}
}

// TestConcurrentDoSharesOneCall starts eight callers of one key and holds
// fn until all of them have reached Do: they must share its single call.
func TestConcurrentDoSharesOneCall(t *testing.T) {
	const callers = 8
	c := New[int](4)
	var arrived sync.WaitGroup
	arrived.Add(callers)
	var calls atomic.Int32
	fn := func() (int, error) {
		calls.Add(1)
		arrived.Wait()
		return 42, nil
	}
	got := make([]int, callers)
	errs := make([]error, callers)
	var done sync.WaitGroup
	for i := range callers {
		done.Add(1)
		go func() {
			defer done.Done()
			arrived.Done()
			got[i], errs[i] = c.Do("k", fn)
		}()
	}
	done.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("fn ran %d times for %d concurrent callers, want 1", n, callers)
	}
	for i := range callers {
		if got[i] != 42 || errs[i] != nil {
			t.Errorf("caller %d got %v, %v; want 42, nil", i, got[i], errs[i])
		}
	}
}

// TestFailedDoLeavesNoEntry pins eviction on error: the failure reaches its
// caller but is never served again.
func TestFailedDoLeavesNoEntry(t *testing.T) {
	c := New[int](4)
	boom := errors.New("boom")
	if _, err := c.Do("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("Do returned %v, want %v", err, boom)
	}
	if c.Len() != 0 {
		t.Errorf("failed entry kept: len %d", c.Len())
	}
	if _, ok := c.Get("k"); ok {
		t.Errorf("Get hit a failed entry")
	}
	calls := 0
	v, err := c.Do("k", func() (int, error) { calls++; return 7, nil })
	if v != 7 || err != nil || calls != 1 {
		t.Errorf("retry after failure = %v, %v with %d calls; want 7, nil with 1", v, err, calls)
	}
}

// TestEvictedWhileRunning evicts an entry whose fn is still running. Its
// caller still gets that fn's value, but the evicted entry is not served
// afterwards; and when an evicted entry's fn fails, the newer entry that
// took its key survives.
func TestEvictedWhileRunning(t *testing.T) {
	c := New[int](1)
	started, release := make(chan struct{}), make(chan struct{})
	type result struct {
		v   int
		err error
	}
	run := func(v int, err error) <-chan result {
		out := make(chan result, 1)
		go func() {
			got, gotErr := c.Do("a", func() (int, error) {
				close(started)
				<-release
				return v, err
			})
			out <- result{got, gotErr}
		}()
		return out
	}

	first := run(1, nil)
	<-started
	c.Add("b", 2) // evicts a mid-fn
	close(release)
	if r := <-first; r.v != 1 || r.err != nil {
		t.Errorf("evicted entry's caller got %v, %v; want 1, nil", r.v, r.err)
	}
	if _, ok := c.Get("a"); ok {
		t.Errorf("evicted entry served after its fn completed")
	}
	if v, _ := c.Do("a", func() (int, error) { return 3, nil }); v != 3 {
		t.Errorf("Do after eviction = %v, want a fresh 3", v)
	}

	started, release = make(chan struct{}), make(chan struct{})
	c.Add("b", 2) // evicts a again
	failing := run(0, errors.New("canceled"))
	<-started
	c.Add("b", 2) // evicts the failing entry mid-fn
	if v, _ := c.Do("a", func() (int, error) { return 5, nil }); v != 5 {
		t.Fatalf("Do beside a running evicted entry = %v, want 5", v)
	}
	close(release)
	if r := <-failing; r.err == nil {
		t.Errorf("failing fn's caller got no error")
	}
	if v, ok := c.Get("a"); !ok || v != 5 {
		t.Errorf("Get(a) = %v, %v after an older entry failed; want 5, true", v, ok)
	}
}
