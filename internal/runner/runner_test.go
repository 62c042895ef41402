package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathfinder/internal/core"
	"pathfinder/internal/prefetch"
	"pathfinder/internal/trace"
	"pathfinder/internal/workload"
)

// testJobs builds a (trace × prefetcher) grid over the given traces with a
// cheap rule-based prefetcher and the full PATHFINDER, both constructed
// per-job from the seed.
func testJobs(traces []string, seed int64) []Job {
	var jobs []Job
	for _, tr := range traces {
		jobs = append(jobs,
			Job{Trace: tr, New: func() (prefetch.Prefetcher, error) { return prefetch.NewBestOffset(), nil }},
			Job{Trace: tr, New: func() (prefetch.Prefetcher, error) {
				cfg := core.DefaultConfig()
				cfg.Seed = seed
				return core.New(cfg)
			}},
		)
	}
	return jobs
}

// TestRunDeterminism is the engine's core contract: the full Table 5 suite
// at 5 K loads, evaluated with 8 workers and with 1, must produce
// byte-identical metrics in the same order.
func TestRunDeterminism(t *testing.T) {
	traces := workload.Names()
	run := func(parallelism int) []Result {
		r := New(Config{Loads: 5000, Seed: 1, Parallelism: parallelism})
		results, err := r.Run(context.Background(), testJobs(traces, 1))
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		return results
	}
	par := run(8)
	ser := run(1)
	if len(par) != len(ser) || len(par) != 2*len(traces) {
		t.Fatalf("result counts: %d vs %d, want %d", len(par), len(ser), 2*len(traces))
	}
	for i := range par {
		if !reflect.DeepEqual(par[i].Metrics, ser[i].Metrics) {
			t.Errorf("job %d: parallel metrics %+v != serial %+v", i, par[i].Metrics, ser[i].Metrics)
		}
		if par[i].BaselineIPC != ser[i].BaselineIPC || par[i].Cycles != ser[i].Cycles {
			t.Errorf("job %d: baseline/cycles diverge: %v/%d vs %v/%d",
				i, par[i].BaselineIPC, par[i].Cycles, ser[i].BaselineIPC, ser[i].Cycles)
		}
		if par[i].IPC <= 0 {
			t.Errorf("job %d: non-positive IPC %v", i, par[i].IPC)
		}
	}
}

// TestBaselineSingleFlight checks that a grid touching each trace many
// times simulates each trace's no-prefetch baseline exactly once.
func TestBaselineSingleFlight(t *testing.T) {
	traces := []string{"cc-5", "bfs-10", "623-xalan-s1"}
	var jobs []Job
	for _, tr := range traces {
		for i := 0; i < 4; i++ {
			jobs = append(jobs, Job{
				Trace: tr,
				Label: fmt.Sprintf("BO-%d", i),
				New:   func() (prefetch.Prefetcher, error) { return prefetch.NewBestOffset(), nil },
			})
		}
	}
	r := New(Config{Loads: 3000, Parallelism: 8})
	if _, err := r.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if got := r.BaselineSims(); got != int64(len(traces)) {
		t.Errorf("baseline simulations = %d, want %d (one per distinct trace)", got, len(traces))
	}
	// A precomputed baseline must not trigger a simulation either.
	misses := uint64(123)
	res, err := r.Eval(context.Background(), Job{
		Trace: "cc-5", Baseline: &misses,
		New: func() (prefetch.Prefetcher, error) { return prefetch.NewBestOffset(), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineMisses != misses || res.BaselineIPC != 0 {
		t.Errorf("precomputed baseline not honoured: %+v", res)
	}
	if got := r.BaselineSims(); got != int64(len(traces)) {
		t.Errorf("baseline simulations after precomputed-baseline job = %d, want %d", got, len(traces))
	}
}

// TestRunCancellation cancels mid-grid from the progress sink and checks
// that Run reports context.Canceled and leaks no goroutines.
func TestRunCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int32
	r := New(Config{
		Loads:       4000,
		Parallelism: 4,
		Progress: func(p Progress) {
			if seen.Add(1) == 2 {
				cancel()
			}
		},
	})
	_, err := r.Run(ctx, testJobs(workload.Names(), 1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := seen.Load(); n >= int32(2*len(workload.Names())) {
		t.Errorf("grid ran to completion (%d progress events) despite cancellation", n)
	}

	// Workers must have wound down; allow the runtime a moment to reap.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPreCancelled checks that an already-cancelled context evaluates
// nothing.
func TestPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := New(Config{Loads: 3000})
	if _, err := r.Run(ctx, testJobs([]string{"cc-5"}, 1)); !errors.Is(err, context.Canceled) {
		t.Errorf("Run err = %v, want context.Canceled", err)
	}
	if got := r.BaselineSims(); got != 0 {
		t.Errorf("baseline simulations = %d on a cancelled run", got)
	}
}

// TestJobValidation covers the job-shape errors.
func TestJobValidation(t *testing.T) {
	r := New(Config{Loads: 1000})
	ctx := context.Background()
	if _, err := r.Eval(ctx, Job{Trace: "cc-5"}); err == nil {
		t.Error("job with no prefetch source did not error")
	}
	if _, err := r.Eval(ctx, Job{New: func() (prefetch.Prefetcher, error) { return prefetch.NewBestOffset(), nil }}); err == nil {
		t.Error("job with neither trace nor accesses did not error")
	}
	if _, err := r.Eval(ctx, Job{Trace: "cc-5", GenFile: func(ctx context.Context, _ []trace.Access) ([]trace.Prefetch, error) { return nil, nil }}); err == nil {
		t.Error("GenFile job without a Label did not error")
	}
	if _, err := r.Eval(ctx, Job{Trace: "no-such-trace", New: func() (prefetch.Prefetcher, error) { return prefetch.NewBestOffset(), nil }}); err == nil {
		t.Error("unknown trace did not error")
	}
}

// TestResolveWarmup pins the warmup precedence.
func TestResolveWarmup(t *testing.T) {
	for _, tc := range []struct{ job, sim, n, want int }{
		{100, 0, 5000, 100}, // explicit job warmup wins
		{-1, 700, 5000, 0},  // negative disables
		{0, 700, 5000, 700}, // sim config next
		{0, 0, 5000, 500},   // default: 10% of the trace
	} {
		if got := resolveWarmup(tc.job, tc.sim, tc.n); got != tc.want {
			t.Errorf("resolveWarmup(%d, %d, %d) = %d, want %d", tc.job, tc.sim, tc.n, got, tc.want)
		}
	}
}

// TestForEach covers the helper's happy path, error short-circuit and
// cancellation.
func TestForEach(t *testing.T) {
	var hits atomic.Int32
	if err := ForEach(context.Background(), 4, 100, func(_ context.Context, i int) error {
		hits.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 100 {
		t.Errorf("hits = %d, want 100", hits.Load())
	}

	wantErr := errors.New("boom")
	err := ForEach(context.Background(), 4, 1000, func(_ context.Context, i int) error {
		if i == 10 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Errorf("err = %v, want boom", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ForEach(ctx, 4, 10, func(context.Context, int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled ForEach err = %v", err)
	}
}

// TestFlightSingleExecution hammers one key from many goroutines and
// counts builder executions.
func TestFlightSingleExecution(t *testing.T) {
	var f flight[int]
	var builds atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := f.Do(context.Background(), "k", func() (int, error) {
				builds.Add(1)
				time.Sleep(time.Millisecond)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Errorf("builder ran %d times, want 1", builds.Load())
	}
}

// TestFlightErrorEviction checks that a failed build is retried on the
// next Do rather than cached forever.
func TestFlightErrorEviction(t *testing.T) {
	var f flight[int]
	calls := 0
	_, err := f.Do(context.Background(), "k", func() (int, error) {
		calls++
		return 0, errors.New("transient")
	})
	if err == nil {
		t.Fatal("first Do did not error")
	}
	v, err := f.Do(context.Background(), "k", func() (int, error) {
		calls++
		return 7, nil
	})
	if err != nil || v != 7 {
		t.Fatalf("retry Do = %d, %v", v, err)
	}
	if calls != 2 {
		t.Errorf("builder calls = %d, want 2", calls)
	}
}
