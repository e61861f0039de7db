// Concurrent evaluation machinery for the decision layer. The advisor
// spends virtually all of its time in what-if cost estimation (§4, Fig.
// 11), and estimates for distinct candidate allocations are independent,
// so both enumerators fan their candidate evaluations out over a bounded
// worker pool. All parallel paths are engineered to return bit-identical
// results to a sequential run: candidate selection replays in sequential
// order, and the exhaustive oracle breaks ties by enumeration index.
package core

import (
	"context"
	"sync"
	"sync/atomic"
)

// forEach runs fn(0..n-1) with at most `workers` concurrent calls,
// stopping at the first error or context cancellation. With workers <= 1
// it degenerates to a plain sequential loop.
func forEach(ctx context.Context, workers, n int, fn func(int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || wctx.Err() != nil {
					return
				}
				if err := fn(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// ForEach exposes the bounded worker pool to the layers above core (the
// placement enumerator, estimator fan-outs): run fn(0..n-1) with at most
// `workers` concurrent calls, stopping at the first error or context
// cancellation. A nil ctx means context.Background().
func ForEach(ctx context.Context, workers, n int, fn func(int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return forEach(ctx, workers, n, fn)
}

// BatchShare divides a worker budget among the tasks of a parallel
// batch, so nested fan-out (statement-level costing inside a candidate
// batch, per-machine searches inside placement's candidate scoring)
// divides the pool instead of multiplying it: each of `tasks` concurrent
// calls gets an equal slice of `workers`, floored at 1.
func BatchShare(workers, tasks int) int {
	if tasks <= 0 {
		return workers
	}
	if w := workers / tasks; w > 1 {
		return w
	}
	return 1
}
