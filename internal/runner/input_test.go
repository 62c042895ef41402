package runner

import (
	"context"
	"sync/atomic"
	"testing"

	"pathfinder/internal/prefetch"
	"pathfinder/internal/telemetry"
	"pathfinder/internal/trace"
	"pathfinder/internal/workload"
)

// TestAccsJobBaselineIdentity pins the baseline-cache identity of Accs
// jobs: a Trace label does not identify records, so two Accs jobs sharing
// a label — or an Accs job labelled like a named trace — must each get the
// baseline of their own accesses, exactly as when evaluated alone. Only a
// shared SourceKey lets Accs jobs share one baseline.
func TestAccsJobBaselineIdentity(t *testing.T) {
	gen := func(name string, seed int64) []trace.Access {
		t.Helper()
		accs, err := workload.Generate(name, 4000, seed)
		if err != nil {
			t.Fatal(err)
		}
		return accs
	}
	cc, bfs := gen("cc-5", 1), gen("bfs-10", 2)
	newNL := func() (prefetch.Prefetcher, error) { return &prefetch.NextLine{Degree: 1}, nil }
	cfg := Config{Loads: 4000, Parallelism: 1}
	alone, err := New(cfg).Eval(context.Background(), Job{Trace: "t", Accs: bfs, New: newNL})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		first Job
	}{
		{"same label", Job{Trace: "t", Accs: cc, New: newNL}},
		{"named trace", Job{Trace: "cc-5", New: newNL}},
	} {
		second := Job{Trace: tc.first.Trace, Accs: bfs, New: newNL}
		results, err := New(cfg).Run(context.Background(), []Job{tc.first, second})
		if err != nil {
			t.Fatal(err)
		}
		got := results[1]
		if got.BaselineMisses != alone.BaselineMisses || got.BaselineIPC != alone.BaselineIPC || got.Coverage != alone.Coverage {
			t.Errorf("%s: Accs job took another trace's baseline: misses %d, IPC %v, coverage %v; alone %d, %v, %v",
				tc.name, got.BaselineMisses, got.BaselineIPC, got.Coverage,
				alone.BaselineMisses, alone.BaselineIPC, alone.Coverage)
		}
	}

	r := New(cfg)
	jobs := []Job{
		{Trace: "t", Accs: bfs, SourceKey: "bfs-10#2", New: newNL},
		{Trace: "u", Accs: bfs, SourceKey: "bfs-10#2", New: newNL},
	}
	results, err := r.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.BaselineSims(); n != 1 {
		t.Errorf("BaselineSims = %d, want 1 (shared by SourceKey)", n)
	}
	for i, res := range results {
		if res.BaselineMisses != alone.BaselineMisses || res.BaselineIPC != alone.BaselineIPC {
			t.Errorf("job %d: keyed baseline %d/%v, want %d/%v",
				i, res.BaselineMisses, res.BaselineIPC, alone.BaselineMisses, alone.BaselineIPC)
		}
	}
}

// tallySource counts the records read through a Source factory's streams,
// keeping the stream's known length visible.
type tallySource struct {
	trace.Source
	reads *atomic.Int64
}

func (s tallySource) Next(a *trace.Access) error {
	err := s.Source.Next(a)
	if err == nil {
		s.reads.Add(1)
	}
	return err
}

func (s tallySource) Remaining() (uint64, bool) {
	if r, ok := s.Source.(interface{ Remaining() (uint64, bool) }); ok {
		return r.Remaining()
	}
	return 0, false
}

// TestReplayPassCount pins how often an evaluation reads its trace: a
// Source job on a cold runner reads the records three times (baseline,
// generation, timed replay), and twice once its baseline is cached.
func TestReplayPassCount(t *testing.T) {
	const n = 2000
	accs, err := workload.Generate("cc-5", n, 4)
	if err != nil {
		t.Fatal(err)
	}
	open := sourceFactory(t, accs)
	var reads atomic.Int64
	job := Job{
		Trace: "cc-5", SourceKey: "cc-5#4",
		Source: func(ctx context.Context) (trace.Source, error) {
			src, err := open(ctx)
			return tallySource{src, &reads}, err
		},
		New: func() (prefetch.Prefetcher, error) { return prefetch.NewBestOffset(), nil },
	}
	r := New(Config{})
	for _, want := range []int64{3 * n, 2 * n} {
		reads.Store(0)
		if _, err := r.Eval(context.Background(), job); err != nil {
			t.Fatal(err)
		}
		if got := reads.Load(); got != want {
			t.Errorf("records read = %d, want %d", got, want)
		}
	}
}

// TestNamedGridFlightCounts pins the single-flight work of a named-trace
// grid: 2 traces × 2 prefetchers build each trace once and each baseline
// once — four flight misses, two baseline simulations.
func TestNamedGridFlightCounts(t *testing.T) {
	reg := telemetry.NewRegistry()
	EnableTelemetry(reg)
	defer EnableTelemetry(nil)

	jobs := chaosJobs([]string{"cc-5", "bfs-10"})
	if _, err := New(Config{Loads: 1500, Parallelism: 2}).Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["runner.flight_misses"]; got != 4 {
		t.Errorf("runner.flight_misses = %d, want 4 (two trace builds, two baselines)", got)
	}
	if got := snap.Counters["runner.baseline_sims"]; got != 2 {
		t.Errorf("runner.baseline_sims = %d, want 2", got)
	}
}
