package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// flight is a single-flight cache: for each key the value is built
// exactly once, concurrent callers block until the builder finishes, and
// failed builds are evicted so a later caller may retry.
//
// Cancellation is never cached: a build that fails because the *builder's*
// context was cancelled (or its per-job deadline expired) is evicted
// before waiters wake, and a waiter whose own context is still live
// re-enters and rebuilds rather than inheriting an unrelated caller's
// cancellation as the key's permanent error.
type flight[T any] struct {
	mu sync.Mutex
	m  map[string]*flightCall[T]
}

type flightCall[T any] struct {
	done     chan struct{}
	val      T
	err      error
	panicked any
}

// Do returns the cached value for key, building it with fn if absent. The
// build runs on the first caller's goroutine; waiters give up (without
// cancelling the build) when their own ctx is cancelled, and take over the
// build when the previous builder was cancelled.
func (f *flight[T]) Do(ctx context.Context, key string, fn func() (T, error)) (T, error) {
	for {
		f.mu.Lock()
		if f.m == nil {
			f.m = make(map[string]*flightCall[T])
		}
		if c, ok := f.m[key]; ok {
			f.mu.Unlock()
			if m := runnerTele.Load(); m != nil {
				m.flightHits.Inc()
			}
			select {
			case <-c.done:
				if c.err != nil && isCancellation(c.err) && ctx.Err() == nil {
					// The builder died of its own cancellation, not a
					// property of the key; this caller is live, so try
					// the build again (the entry is already evicted).
					continue
				}
				return c.val, c.err
			case <-ctx.Done():
				var zero T
				return zero, ctx.Err()
			}
		}
		c := &flightCall[T]{done: make(chan struct{})}
		f.m[key] = c
		f.mu.Unlock()
		if m := runnerTele.Load(); m != nil {
			m.flightMisses.Inc()
		}

		func() {
			defer func() {
				if p := recover(); p != nil {
					// Record the panic as a build failure so waiters are
					// released, then re-raise it on the builder below.
					c.panicked = p
					c.err = fmt.Errorf("flight: builder for %q panicked: %v", key, p)
				}
				if c.err != nil {
					// Evict before waking waiters so a retrying waiter
					// finds the slot free instead of the dead call.
					f.mu.Lock()
					if f.m[key] == c {
						delete(f.m, key)
					}
					f.mu.Unlock()
				}
				close(c.done)
			}()
			c.val, c.err = fn()
		}()
		if c.panicked != nil {
			panic(c.panicked)
		}
		return c.val, c.err
	}
}

// isCancellation reports whether a build error is a context verdict
// rather than a property of the key being built.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
