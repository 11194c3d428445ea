package par

import (
	"context"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		var hits [100]int32
		if err := ForEach(context.Background(), workers, len(hits), func(i int) {
			atomic.AddInt32(&hits[i], 1)
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
	ForEach(context.Background(), 4, 0, func(int) { t.Fatal("fn called for n=0") })
}

// TestForEachCancellation pins the contract RunMatrix's cancellation rides
// on: once the context fires, queued indices are never dispatched and
// ForEach reports the context error.
func TestForEachCancellation(t *testing.T) {
	t.Run("sequential", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		var ran int32
		err := ForEach(ctx, 1, 100, func(i int) {
			if atomic.AddInt32(&ran, 1) == 3 {
				cancel()
			}
		})
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if got := atomic.LoadInt32(&ran); got != 3 {
			t.Fatalf("ran %d indices after cancellation at the 3rd, want exactly 3", got)
		}
	})
	t.Run("parallel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		var ran int32
		err := ForEach(ctx, 4, 1000, func(i int) {
			if atomic.AddInt32(&ran, 1) == 10 {
				cancel()
			}
		})
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		// In-flight work may finish, but the bulk of the queue must have
		// been abandoned (4 workers + the dispatch channel hold only a
		// handful of indices beyond the 10th).
		if got := atomic.LoadInt32(&ran); got >= 1000 {
			t.Fatalf("all %d indices ran despite mid-stream cancellation", got)
		}
	})
	t.Run("pre-canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err := ForEach(ctx, 4, 8, func(i int) { t.Error("fn ran under a canceled context") })
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
}
