// Package par provides the bounded worker pool behind the public RunMatrix
// (and through it RunExperiment): cells dispatch through ForEach instead of
// each spawning a goroutine, so concurrency is capped by the caller's
// worker budget rather than the size of the work list.
package par

import (
	"context"
	"sync"
)

// ForEach runs fn(0..n-1) across min(workers, n) goroutines pulling from a
// shared index stream. Order of execution is unspecified; callers must make
// fn(i) write only to the i-th slot of any shared output. workers <= 1 runs
// sequentially on the calling goroutine.
//
// Cancellation: once ctx is done, no further indices are dispatched —
// queued work is abandoned, in-flight fn calls run to completion (pass a
// ctx-aware fn for prompt teardown), and ForEach returns ctx's error. A nil
// error means fn ran for every index.
func ForEach(ctx context.Context, workers, n int, fn func(int)) error {
	if n == 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	var err error
dispatch:
	for i := 0; i < n; i++ {
		// Checked before the select: a select with both channels ready
		// chooses randomly, and an already-canceled context must never
		// dispatch.
		if err = ctx.Err(); err != nil {
			break
		}
		select {
		case next <- i:
		case <-ctx.Done():
			err = ctx.Err()
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	return err
}
