package runner

// Tests of the pipelined cell: prefetch generation runs on its own
// goroutine and the timed replay reads its file chunk by chunk. Results,
// error texts and panics must be those of the serial order (baseline,
// generation, replay), and no goroutine or stream read may outlive the
// cell; `make chaos` runs them under the race detector repeatedly.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pathfinder/internal/prefetch"
	"pathfinder/internal/sim"
	"pathfinder/internal/telemetry"
	"pathfinder/internal/trace"
	"pathfinder/internal/workload"
)

// pipelineLoads spans eight chunks, so every chunk buffer of a cell is
// refilled at least once.
const pipelineLoads = 8 * prefetch.ChunkAccesses

// TestPipelineBitIdentical evaluates every kind of job — a named trace,
// Accs, a Source of unknown length, a File, a GenFile and a cell replaying
// a shared member's recording — at Parallelism 1 and 4. Every cell equals
// the stage-by-stage composition, the prefetch telemetry and the baseline
// count are the composition's, and a File job's slice is left as it was.
func TestPipelineBitIdentical(t *testing.T) {
	const seed = 3
	gen := func(name string, seed int64) []trace.Access {
		t.Helper()
		accs, err := workload.Generate(name, pipelineLoads, seed)
		if err != nil {
			t.Fatal(err)
		}
		return accs
	}
	named, accs, streamed, shared := gen("cc-5", seed), gen("bfs-10", 4), gen("605-mcf-s1", 5), gen("623-xalan-s1", 6)
	pft3 := pft3Factory(t, streamed)
	cfg := sim.ScaledConfig()
	cfg.Warmup = pipelineLoads / 10
	bo := func() (prefetch.Prefetcher, error) { return prefetch.NewBestOffset(), nil }
	generated := func(ctx context.Context, p prefetch.Prefetcher, src trace.Source) ([]trace.Prefetch, error) {
		return prefetch.GenerateFileStreamCtx(ctx, p, src, prefetch.Budget)
	}
	file, err := prefetch.GenerateFileCtx(context.Background(), prefetch.NewStride(), accs, prefetch.Budget)
	if err != nil {
		t.Fatal(err)
	}
	fileCopy := slices.Clone(file)
	genFile := func(ctx context.Context, accs []trace.Access) ([]trace.Prefetch, error) {
		return prefetch.GenerateFileCtx(ctx, &prefetch.NextLine{}, accs, prefetch.Budget)
	}
	var advised atomic.Int64
	ensemble := func() prefetch.Prefetcher {
		return prefetch.NewEnsemble(sharedEcho("echo", &advised), &prefetch.NextLine{})
	}

	kinds := []struct {
		job  Job
		open func(context.Context) (trace.Source, error)
		file func(context.Context, trace.Source) ([]trace.Prefetch, error)
	}{
		{Job{Trace: "cc-5", New: bo}, sliceFactory(named),
			func(ctx context.Context, src trace.Source) ([]trace.Prefetch, error) {
				return generated(ctx, prefetch.NewBestOffset(), src)
			}},
		{Job{Trace: "bfs-10", Accs: accs, New: bo}, sliceFactory(accs),
			func(ctx context.Context, src trace.Source) ([]trace.Prefetch, error) {
				return generated(ctx, prefetch.NewBestOffset(), src)
			}},
		{Job{Trace: "605-mcf-s1", Source: pft3, SourceKey: "pft3:605-mcf-s1#5", Warmup: cfg.Warmup,
			New: func() (prefetch.Prefetcher, error) { return prefetch.NewSPP(), nil }}, pft3,
			func(ctx context.Context, src trace.Source) ([]trace.Prefetch, error) {
				return generated(ctx, prefetch.NewSPP(), src)
			}},
		{Job{Trace: "bfs-10", Accs: accs, File: file}, sliceFactory(accs),
			func(context.Context, trace.Source) ([]trace.Prefetch, error) { return fileCopy, nil }},
		{Job{Trace: "cc-5", Label: "NL-file", GenFile: genFile}, sliceFactory(named),
			func(ctx context.Context, src trace.Source) ([]trace.Prefetch, error) {
				accs, err := trace.Collect(src)
				if err != nil {
					return nil, err
				}
				return genFile(ctx, accs)
			}},
		{Job{Trace: "623-xalan-s1", Accs: shared, SourceKey: "623-xalan-s1#6",
			New: func() (prefetch.Prefetcher, error) { return ensemble(), nil }}, sliceFactory(shared),
			func(ctx context.Context, src trace.Source) ([]trace.Prefetch, error) {
				return generated(ctx, ensemble(), src)
			}},
	}
	defer prefetch.EnableTelemetry(nil)
	wantTele := telemetry.NewRegistry()
	prefetch.EnableTelemetry(wantTele)
	var jobs []Job
	var want []Result
	for _, k := range kinds {
		jobs = append(jobs, k.job)
		label := k.job.Label
		if label == "" {
			label = "file"
		}
		if k.job.New != nil {
			p, _ := k.job.New()
			label = p.Name()
		}
		want = append(want, composed(t, k.job.Trace, label, k.open, cfg, k.file))
	}
	for _, par := range []int{1, 4} {
		gotTele := telemetry.NewRegistry()
		prefetch.EnableTelemetry(gotTele)
		r := New(Config{Loads: pipelineLoads, Seed: seed, Parallelism: par})
		got, err := r.Run(context.Background(), jobs)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		// Five files are generated, all but the File job's.
		if g, w := gotTele.Snapshot(), wantTele.Snapshot(); !reflect.DeepEqual(g, w) || w.Counters["prefetch.generations"] != 5 {
			t.Errorf("parallelism %d: prefetch telemetry\n  runner         %+v\n  stage by stage %+v", par, g, w)
		}
		// One baseline per input identity: the two named cc-5 cells share
		// one, each unkeyed Accs cell runs its own.
		if n := r.BaselineSims(); n != 5 {
			t.Errorf("parallelism %d: BaselineSims = %d, want 5", par, n)
		}
		for i := range jobs {
			if !sameCell(got[i], want[i]) {
				t.Errorf("parallelism %d, cell %d (%s/%s):\n  runner         %+v ipc=%v cycles=%d\n  stage by stage %+v ipc=%v cycles=%d",
					par, i, got[i].Trace, got[i].Prefetcher, got[i].Metrics, got[i].BaselineIPC, got[i].Cycles,
					want[i].Metrics, want[i].BaselineIPC, want[i].Cycles)
			}
		}
		if !slices.Equal(file, fileCopy) {
			t.Fatalf("parallelism %d: the File job's slice changed", par)
		}
	}
}

// panicky panics when advised on access k.
type panicky struct {
	prefetch.Prefetcher
	k, n int
}

func (p *panicky) Advise(a trace.Access, budget int) []uint64 {
	if p.n == p.k {
		panic(fmt.Sprintf("prefetcher broke at access %d", p.k))
	}
	p.n++
	return p.Prefetcher.Advise(a, budget)
}

// TestPipelineGenerationPanic panics a prefetcher several chunks into the
// file, while the replay has chunks to read: the cell returns the
// generation's *PanicError, its stack through the generation goroutine,
// and the process survives.
func TestPipelineGenerationPanic(t *testing.T) {
	const k = 3*prefetch.ChunkAccesses + 100
	job := Job{
		Trace: "cc-5", Label: "BO",
		New: func() (prefetch.Prefetcher, error) { return &panicky{Prefetcher: prefetch.NewBestOffset(), k: k}, nil },
	}
	_, err := New(Config{Loads: pipelineLoads}).Eval(context.Background(), job)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError", err)
	}
	if want := fmt.Sprintf("prefetcher broke at access %d", k); pe.Value != want {
		t.Errorf("panic value %v, want %q", pe.Value, want)
	}
	if !strings.Contains(string(pe.Stack), "(*Runner).startGeneration.func") || strings.Contains(string(pe.Stack), "(*Runner).safeEval") {
		t.Errorf("panic stack does not run through the generation goroutine:\n%s", pe.Stack)
	}
}

// TestPipelineReplayOutOfStep binds a shared member to a recording of
// other records under the same SourceKey, so its Replay runs out of step
// while the timed replay of the file runs clean to the end: the cell
// reports the Replay's error, as a serial evaluation does before it
// replays anything.
func TestPipelineReplayOutOfStep(t *testing.T) {
	var advised atomic.Int64
	job := func(loads int) Job {
		accs, err := workload.Generate("cc-5", loads, 7)
		if err != nil {
			t.Fatal(err)
		}
		return Job{
			Trace: "cc-5", Label: "Echo+NL", Accs: accs, SourceKey: "cc-5#7",
			New: func() (prefetch.Prefetcher, error) {
				return prefetch.NewEnsemble(sharedEcho("echo", &advised), &prefetch.NextLine{}), nil
			},
		}
	}
	r := New(Config{})
	if _, err := r.Eval(context.Background(), job(pipelineLoads)); err != nil {
		t.Fatal(err)
	}
	const short = pipelineLoads - prefetch.ChunkAccesses/2
	_, err := r.Eval(context.Background(), job(short))
	want := fmt.Sprintf("runner: job 0 (cc-5/Echo+NL): prefetch: Echo replay stopped after %d of %d recorded accesses", short, pipelineLoads)
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v\nwant %s", err, want)
	}
}

// TestPipelineReplayFailsFirst breaks the timed replay's stream early and
// the generation's stream chunks later: the replay fails first, yet the
// cell reports the generation's failure, as a serial evaluation does.
// The job supplies its baseline, so no baseline stream can fail.
func TestPipelineReplayFailsFirst(t *testing.T) {
	accs, err := workload.Generate("cc-5", pipelineLoads, 8)
	if err != nil {
		t.Fatal(err)
	}
	open := sourceFactory(t, accs)
	genBroke, replayBroke := errors.New("generation's record unreadable"), errors.New("replay's record unreadable")
	var calls atomic.Int32
	misses := uint64(1)
	job := Job{
		// The wrapped streams hide their length, so warmup is pinned.
		Trace: "cc-5", Label: "BO", SourceKey: "cc-5#8", Baseline: &misses, Warmup: pipelineLoads / 10,
		Source: func(ctx context.Context) (trace.Source, error) {
			src, err := open(ctx)
			// The first stream resolves the input and goes to generation.
			if calls.Add(1) == 1 {
				return &brokenSource{Source: src, k: 3 * prefetch.ChunkAccesses, err: genBroke}, err
			}
			return &brokenSource{Source: src, k: 100, err: replayBroke}, err
		},
		New: func() (prefetch.Prefetcher, error) { return prefetch.NewBestOffset(), nil },
	}
	want := "runner: job 0 (cc-5/BO): " + genBroke.Error()
	for i := 0; i < 5; i++ {
		calls.Store(0)
		_, err := New(Config{}).Eval(context.Background(), job)
		if err == nil || err.Error() != want || !errors.Is(err, genBroke) {
			t.Fatalf("run %d: err = %v\nwant %s", i, err, want)
		}
	}
}

// countingStream counts the records read through it.
type countingStream struct {
	trace.Source
	read *atomic.Int64
}

func (s *countingStream) Next(a *trace.Access) error {
	err := s.Source.Next(a)
	if err == nil {
		s.read.Add(1)
	}
	return err
}

// TestPipelineCancelNoLeak stalls the baseline's and the timed replay's
// streams until cancellation while generation runs ahead until its feed is
// full, then cancels the run. Run returns only after every stream read has
// returned, and the goroutine count comes back to where it started.
func TestPipelineCancelNoLeak(t *testing.T) {
	accs, err := workload.Generate("cc-5", pipelineLoads, 9)
	if err != nil {
		t.Fatal(err)
	}
	open := sourceFactory(t, accs)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var reading atomic.Int32
	var generated atomic.Int64
	var calls atomic.Int32
	job := Job{
		Trace: "cc-5", Label: "BO", SourceKey: "cc-5#9", Warmup: pipelineLoads / 10,
		Source: func(ctx context.Context) (trace.Source, error) {
			src, err := open(ctx)
			if calls.Add(1) == 1 {
				return &countingStream{Source: src, read: &generated}, err
			}
			return &stallingSource{Source: src, ctx: ctx, k: 100, reading: &reading, reached: func() {}}, err
		},
		New: func() (prefetch.Prefetcher, error) { return prefetch.NewBestOffset(), nil },
	}
	// Generation fills every chunk buffer, the replay holding the first,
	// then blocks handing over the next: its stream stops short of the end.
	full := int64(feedDepth * prefetch.ChunkAccesses)
	go func() {
		for generated.Load() < full && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err = New(Config{Parallelism: 1}).Run(ctx, []Job{job})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := generated.Load(); n != full {
		t.Errorf("generation read %d records before the cancellation, want %d (blocked on a full feed)", n, full)
	}
	if n := reading.Load(); n != 0 {
		t.Errorf("%d stream reads still running after Run returned", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamCellMemoryBounded evaluates a Source cell over a million
// accesses: it allocates a few chunk buffers for its prefetch file, not
// the file, so its allocations stay under a bound that does not grow with
// the stream. Materialising the file alone would take 32 MB.
func TestStreamCellMemoryBounded(t *testing.T) {
	const loads = 1 << 20
	accs, err := workload.Generate("cc-5", loads, 10)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{
		Trace: "cc-5", Source: sliceFactory(accs), SourceKey: "cc-5#10",
		New: func() (prefetch.Prefetcher, error) { return &prefetch.NextLine{}, nil },
	}
	eval := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := New(Config{Parallelism: 1}).Eval(context.Background(), job)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Issued < loads {
			t.Fatalf("issued %d prefetches over %d accesses", res.Issued, loads)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	eval() // builds the pooled engines
	const bound = 2 << 20
	if n := eval(); n > bound {
		t.Errorf("a %d-access Source cell allocated %d bytes, want at most %d", loads, n, bound)
	}
}
