package runner

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"pathfinder/internal/prefetch"
	"pathfinder/internal/sim"
	"pathfinder/internal/trace"
	"pathfinder/internal/workload"
)

// panicSource replays a slice but panics after n records, so a pooled
// engine can be abandoned deep inside a run with half-filled caches, live
// in-flight fills, and a partially consumed replay window.
type panicSource struct {
	inner trace.Source
	left  int
}

func (s *panicSource) Next(a *trace.Access) error {
	if s.left == 0 {
		panic("injected mid-replay panic")
	}
	s.left--
	return s.inner.Next(a)
}

// TestEnginePoolReuseAfterPanic is the chaos test for the engine pool: an
// engine whose run panicked mid-replay goes back to the pool (the release
// is deferred) and the next acquisition must reproduce a fresh engine's
// results bit for bit — the Engine resets at the start of each run, so
// abandoned state from the panicked replay cannot leak.
func TestEnginePoolReuseAfterPanic(t *testing.T) {
	accs, err := workload.Generate("cc-5", 3000, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.ScaledConfig()
	cfg.Warmup = 300
	want, err := sim.Run(cfg, accs, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Dirty a pooled engine: panic 2000 records into a replay, recover, and
	// let the deferred release put the abandoned engine back.
	func() {
		eng, release := sim.AcquireEngine(cfg)
		defer release()
		defer func() {
			if recover() == nil {
				t.Fatal("panicSource did not panic")
			}
		}()
		eng.RunStreamCtx(context.Background(), &panicSource{inner: trace.NewSliceSource(accs), left: 2000}, nil)
	}()

	// Single goroutine, same config: the next acquisition is the abandoned
	// engine (the pool hands out the most recently released engine first).
	eng, release := sim.AcquireEngine(cfg)
	defer release()
	got, err := eng.RunCtx(context.Background(), accs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("reused engine after panicked run diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestEnginePoolRetriedJobBitIdentical runs the same property through the
// runner: a job whose simulation panics on the first attempt (via a
// panicking Source) both attempts on one worker, so the retry replays on
// the engine the panicked attempt abandoned. Panics are deterministic and
// not retried by policy, so the "retry" here is a second Eval of an
// equivalent healthy job — the result must match a never-faulted runner.
func TestEnginePoolRetriedJobBitIdentical(t *testing.T) {
	accs, err := workload.Generate("bfs-10", 3000, 4)
	if err != nil {
		t.Fatal(err)
	}
	newPF := func() (prefetch.Prefetcher, error) { return prefetch.NewStride(), nil }
	healthy := Job{
		Trace: "bfs-10", Label: "Stride", New: newPF,
		SourceKey: "bfs-10#4",
		Source: func(context.Context) (trace.Source, error) {
			return trace.NewSliceSource(accs), nil
		},
	}
	ref, err := New(Config{Parallelism: 1}).Eval(context.Background(), healthy)
	if err != nil {
		t.Fatal(err)
	}

	// A job whose third Source call panics mid-stream: the timed replay or
	// the baseline, whichever of the two simulations opens its stream
	// later (the first call resolves the input). The factory is called
	// from both of the cell's goroutines, so it counts atomically.
	r := New(Config{Parallelism: 1})
	var calls atomic.Int32
	faulty := healthy
	faulty.Source = func(context.Context) (trace.Source, error) {
		src := trace.Source(trace.NewSliceSource(accs))
		if calls.Add(1) == 3 {
			src = &panicSource{inner: src, left: 1500}
		}
		return src, nil
	}
	if _, err := r.Eval(context.Background(), faulty); err == nil {
		t.Fatal("faulty job did not fail")
	} else if fmt.Sprint(err) == "" {
		t.Fatal("empty error")
	}
	got, err := r.Eval(context.Background(), healthy)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCell(got, ref) {
		t.Fatalf("post-panic evaluation diverged:\n got %+v\nwant %+v", got.Metrics, ref.Metrics)
	}
}

// TestEnginePoolWarmupIsolation checks that jobs differing only in warmup
// can share one pool entry without the warmup leaking between them.
func TestEnginePoolWarmupIsolation(t *testing.T) {
	accs, err := workload.Generate("cc-5", 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.ScaledConfig()
	for _, warmup := range []int{0, 500, 0, 200} {
		cfg.Warmup = warmup
		want, err := sim.Run(cfg, accs, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng, release := sim.AcquireEngine(cfg)
		got, err := eng.RunCtx(context.Background(), accs, nil)
		release()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("warmup %d: pooled engine diverged:\n got %+v\nwant %+v", warmup, got, want)
		}
	}
}
