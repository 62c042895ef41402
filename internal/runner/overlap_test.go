package runner

// Tests of the overlapped cell: the baseline runs on its own goroutine
// beside prefetch generation and the timed replay. Results, error texts
// and panics must be those of the serial order (baseline, generation,
// replay), and no goroutine or stream read may outlive the cell. Every
// test here but TestOverlapStreamsOpenAtOnce also holds for a serial
// evaluation; `make chaos` runs them under the race detector repeatedly.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathfinder/internal/prefetch"
	"pathfinder/internal/sim"
	"pathfinder/internal/trace"
	"pathfinder/internal/workload"
)

// pft3Factory encodes accs into the unbounded PFT3 container, which does
// not declare its length, and returns a factory decoding a fresh stream
// per call.
func pft3Factory(t testing.TB, accs []trace.Access) func(context.Context) (trace.Source, error) {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, trace.NewSliceSource(accs)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	return func(context.Context) (trace.Source, error) {
		return trace.NewReader(bytes.NewReader(data))
	}
}

// stageByStage evaluates one cell outside the runner, in the serial
// order: a no-prefetch RunStreamCtx, then GenerateFileStreamCtx, then the
// timed RunStreamCtx, each over a fresh stream from open.
func stageByStage(t *testing.T, name string, open func(context.Context) (trace.Source, error), cfg sim.Config, p prefetch.Prefetcher) Result {
	t.Helper()
	return composed(t, name, p.Name(), open, cfg, func(ctx context.Context, src trace.Source) ([]trace.Prefetch, error) {
		return prefetch.GenerateFileStreamCtx(ctx, p, src, prefetch.Budget)
	})
}

// composed is stageByStage with the prefetch file written by file from a
// stream of its own, and the result labelled label.
func composed(t *testing.T, name, label string, open func(context.Context) (trace.Source, error), cfg sim.Config,
	file func(context.Context, trace.Source) ([]trace.Prefetch, error)) Result {
	t.Helper()
	ctx := context.Background()
	stream := func() trace.Source {
		src, err := open(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	simulate := func(pfs []trace.Prefetch) sim.Result {
		eng, release := sim.AcquireEngine(cfg)
		defer release()
		res, err := eng.RunStreamCtx(ctx, stream(), pfs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := simulate(nil)
	pfs, err := file(ctx, stream())
	if err != nil {
		t.Fatal(err)
	}
	res := simulate(pfs)
	return Result{
		Metrics: Metrics{
			Prefetcher:     label,
			Trace:          name,
			IPC:            res.IPC,
			Accuracy:       res.Accuracy(),
			Coverage:       res.Coverage(base.LLCLoadMisses),
			Issued:         res.PrefIssued,
			Useful:         res.PrefUseful,
			BaselineMisses: base.LLCLoadMisses,
		},
		BaselineIPC: base.IPC,
		Cycles:      res.Cycles,
	}
}

// TestOverlapBitIdentical evaluates three kinds of input — a named trace,
// an Accs job with a SourceKey, and a Source job over a PFT3 stream of
// unknown length with its warmup pinned — under three prefetchers each, at
// Parallelism 1 and 4. Every cell equals the stage-by-stage composition,
// and each input runs its baseline exactly once.
func TestOverlapBitIdentical(t *testing.T) {
	const loads, seed, pinned = 3000, 5, 250
	gen := func(name string, seed int64) []trace.Access {
		t.Helper()
		accs, err := workload.Generate(name, loads, seed)
		if err != nil {
			t.Fatal(err)
		}
		return accs
	}
	named, accs, streamed := gen("cc-5", seed), gen("bfs-10", 6), gen("605-mcf-s1", 7)
	pft3 := pft3Factory(t, streamed)
	scaled := func(warmup int) sim.Config {
		cfg := sim.ScaledConfig()
		cfg.Warmup = warmup
		return cfg
	}
	inputs := []struct {
		job  Job
		open func(context.Context) (trace.Source, error)
		cfg  sim.Config
	}{
		{Job{Trace: "cc-5"}, sliceFactory(named), scaled(loads / 10)},
		{Job{Trace: "bfs-10", Accs: accs, SourceKey: "bfs-10#6"}, sliceFactory(accs), scaled(loads / 10)},
		{Job{Trace: "605-mcf-s1", Source: pft3, SourceKey: "pft3:605-mcf-s1#7", Warmup: pinned}, pft3, scaled(pinned)},
	}
	makers := []func() prefetch.Prefetcher{
		func() prefetch.Prefetcher { return prefetch.NewBestOffset() },
		func() prefetch.Prefetcher { return prefetch.NewStride() },
		func() prefetch.Prefetcher { return &prefetch.NextLine{} },
	}
	var jobs []Job
	var want []Result
	for _, in := range inputs {
		for _, mk := range makers {
			mk := mk
			job := in.job
			job.New = func() (prefetch.Prefetcher, error) { return mk(), nil }
			jobs = append(jobs, job)
			want = append(want, stageByStage(t, job.Trace, in.open, in.cfg, mk()))
		}
	}
	for _, par := range []int{1, 4} {
		r := New(Config{Loads: loads, Seed: seed, Parallelism: par})
		got, err := r.Run(context.Background(), jobs)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		for i := range jobs {
			if !sameCell(got[i], want[i]) {
				t.Errorf("parallelism %d, cell %d (%s/%s):\n  runner         %+v ipc=%v cycles=%d\n  stage by stage %+v ipc=%v cycles=%d",
					par, i, got[i].Trace, got[i].Prefetcher, got[i].Metrics, got[i].BaselineIPC, got[i].Cycles,
					want[i].Metrics, want[i].BaselineIPC, want[i].Cycles)
			}
		}
		if n := r.BaselineSims(); n != int64(len(inputs)) {
			t.Errorf("parallelism %d: BaselineSims = %d, want %d (one per input)", par, n, len(inputs))
		}
	}
}

// sliceFactory is a Source factory over an in-memory trace.
func sliceFactory(accs []trace.Access) func(context.Context) (trace.Source, error) {
	return func(context.Context) (trace.Source, error) { return trace.NewSliceSource(accs), nil }
}

// streamGauge counts a factory's streams: a stream is open from the
// factory's return until its Next returns an error, io.EOF at the end.
type streamGauge struct {
	mu               sync.Mutex
	opened, now, max int
	third            chan struct{} // closed when the third stream opens
}

// gauged wraps a factory so every stream it returns is counted. The first
// two streams hold their ends until a third is open, so an overlap is seen
// however the goroutines are scheduled: the first for at most five
// seconds, the second for at most one. The second's shorter hold keeps a
// stage that runs after the first stream's from ever seeing the second
// still open.
func (g *streamGauge) gauged(open func(context.Context) (trace.Source, error)) func(context.Context) (trace.Source, error) {
	return func(ctx context.Context) (trace.Source, error) {
		src, err := open(ctx)
		if err != nil {
			return nil, err
		}
		g.mu.Lock()
		defer g.mu.Unlock()
		g.opened++
		if g.now++; g.now > g.max {
			g.max = g.now
		}
		var hold time.Duration
		switch g.opened {
		case 1:
			hold = 5 * time.Second
		case 2:
			hold = time.Second
		case 3:
			close(g.third)
		}
		return &gaugedSource{Source: src, g: g, hold: hold}, nil
	}
}

type gaugedSource struct {
	trace.Source
	g    *streamGauge
	hold time.Duration
	done bool
}

func (s *gaugedSource) Next(a *trace.Access) error {
	err := s.Source.Next(a)
	if err != nil && !s.done {
		if s.hold > 0 {
			select {
			case <-s.g.third:
			case <-time.After(s.hold):
			}
		}
		s.done = true
		s.g.mu.Lock()
		s.g.now--
		s.g.mu.Unlock()
	}
	return err
}

// TestOverlapStreamsOpenAtOnce pins the overlap itself: on a cold cell
// generation reads the resolved stream while the baseline and the timed
// replay read their own, so the factory sees three streams open at once.
// A cell whose replay waited for the whole file would open the replay's
// stream only after generation's had ended and see two; a serial
// evaluation reads its streams one after another and sees one.
func TestOverlapStreamsOpenAtOnce(t *testing.T) {
	accs, err := workload.Generate("cc-5", 4000, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := &streamGauge{third: make(chan struct{})}
	job := Job{
		Trace: "cc-5", Source: g.gauged(sourceFactory(t, accs)), SourceKey: "cc-5#2", Warmup: 400,
		New: func() (prefetch.Prefetcher, error) { return prefetch.NewStride(), nil },
	}
	if _, err := New(Config{}).Eval(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.opened != 3 || g.max != 3 {
		t.Errorf("cold cell opened %d streams, at most %d at once; want 3, all at once", g.opened, g.max)
	}
}

// baselinePanicSource panics after k records when the baseline reads it,
// and reads normally otherwise. A stream cannot see which stage reads it,
// so it looks for the baseline in its reader's stack at the first record.
type baselinePanicSource struct {
	trace.Source
	k, read  int
	baseline bool
}

func (s *baselinePanicSource) Next(a *trace.Access) error {
	if s.read == 0 {
		buf := make([]byte, 64<<10)
		s.baseline = bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("(*Runner).baseline"))
	}
	if s.baseline && s.read == s.k {
		panic(fmt.Sprintf("baseline stream broke at record %d", s.k))
	}
	s.read++
	return s.Source.Next(a)
}

// TestOverlapBaselinePanic fails a cell's baseline pass with a panic while
// its prefetch path reads the same records unharmed: the cell returns the
// baseline's *PanicError with its stack and the process survives. The
// failed build is not cached, so the next cell under the same SourceKey
// rebuilds the baseline and matches a fresh runner.
func TestOverlapBaselinePanic(t *testing.T) {
	accs, err := workload.Generate("bfs-10", 3000, 8)
	if err != nil {
		t.Fatal(err)
	}
	open := sourceFactory(t, accs)
	// The wrapped streams hide their length, so warmup is pinned.
	healthy := Job{
		Trace: "bfs-10", Label: "Stride", Source: open, SourceKey: "bfs-10#8", Warmup: 300,
		New: func() (prefetch.Prefetcher, error) { return prefetch.NewStride(), nil },
	}
	faulty := healthy
	faulty.Source = func(ctx context.Context) (trace.Source, error) {
		src, err := open(ctx)
		return &baselinePanicSource{Source: src, k: 1000}, err
	}
	r := New(Config{})
	_, err = r.Eval(context.Background(), faulty)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError", err)
	}
	if !bytes.Contains(pe.Stack, []byte("(*Runner).baseline")) {
		t.Errorf("panic stack does not run through the baseline:\n%s", pe.Stack)
	}
	var je *JobError
	if !errors.As(err, &je) || len(je.Stack) == 0 {
		t.Errorf("err = %v, want a *JobError carrying the panic stack", err)
	}

	got, err := r.Eval(context.Background(), healthy)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.BaselineSims(); n != 2 {
		t.Errorf("BaselineSims = %d, want 2 (the panicked build, then the rebuild)", n)
	}
	want, err := New(Config{}).Eval(context.Background(), healthy)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCell(got, want) {
		t.Errorf("cell after the panicked baseline %+v, fresh runner %+v", got.Metrics, want.Metrics)
	}
}

// brokenSource fails at record k with err.
type brokenSource struct {
	trace.Source
	k, read int
	err     error
}

func (s *brokenSource) Next(a *trace.Access) error {
	if s.read == s.k {
		return s.err
	}
	s.read++
	return s.Source.Next(a)
}

// TestOverlapErrorPrecedence breaks every stream of a Source at the same
// record, so the baseline and the prefetch path both fail. The cell
// reports the baseline's failure, the text of a serial evaluation, which
// fails in its baseline first.
func TestOverlapErrorPrecedence(t *testing.T) {
	accs, err := workload.Generate("cc-5", 3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	open := sourceFactory(t, accs)
	broken := errors.New("record 700 unreadable")
	job := Job{
		Trace: "cc-5", Label: "BO", SourceKey: "cc-5#3", Warmup: 300,
		Source: func(ctx context.Context) (trace.Source, error) {
			src, err := open(ctx)
			return &brokenSource{Source: src, k: 700, err: broken}, err
		},
		New: func() (prefetch.Prefetcher, error) { return prefetch.NewBestOffset(), nil },
	}
	// The serial order's error: the no-prefetch simulation of the broken
	// stream, as the baseline stage wraps it.
	src, err := job.Source(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.ScaledConfig()
	cfg.Warmup = job.Warmup
	eng, release := sim.AcquireEngine(cfg)
	_, simErr := eng.RunStreamCtx(context.Background(), src, nil)
	release()
	if simErr == nil {
		t.Fatal("simulating the broken stream succeeded")
	}
	want := "runner: job 0 (cc-5/BO): baseline simulation: " + simErr.Error()

	for i := 0; i < 5; i++ {
		_, err := New(Config{}).Eval(context.Background(), job)
		if err == nil || err.Error() != want {
			t.Fatalf("run %d: err = %v\nwant %s", i, err, want)
		}
		if !errors.Is(err, broken) {
			t.Fatalf("run %d: err = %v does not wrap the stream's error", i, err)
		}
	}
}

// TestOverlapCancelNoLeak cancels a run while its cell is mid-stream: both
// of the cell's passes block at record k until the cancellation and are
// slow to return. Run returns only after every stream read has returned,
// and the goroutine count comes back to where it started.
func TestOverlapCancelNoLeak(t *testing.T) {
	accs, err := workload.Generate("cc-5", 4000, 4)
	if err != nil {
		t.Fatal(err)
	}
	open := sourceFactory(t, accs)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var reading atomic.Int32
	reached := make(chan struct{})
	var once sync.Once
	job := Job{
		Trace: "cc-5", Label: "BO", SourceKey: "cc-5#4", Warmup: 400,
		Source: func(ctx context.Context) (trace.Source, error) {
			src, err := open(ctx)
			return &stallingSource{Source: src, ctx: ctx, k: 1500, reading: &reading, reached: func() { once.Do(func() { close(reached) }) }}, err
		},
		New: func() (prefetch.Prefetcher, error) { return prefetch.NewBestOffset(), nil },
	}
	go func() {
		<-reached
		cancel()
	}()
	_, err = New(Config{Parallelism: 1}).Run(ctx, []Job{job})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
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

// stallingSource blocks at record k until its context is done, then takes
// another 20 ms to return the context's error, as a reader slow to notice
// cancellation would. reading counts its Next calls in progress.
type stallingSource struct {
	trace.Source
	ctx     context.Context
	k, read int
	reading *atomic.Int32
	reached func()
}

func (s *stallingSource) Next(a *trace.Access) error {
	s.reading.Add(1)
	defer s.reading.Add(-1)
	if s.read == s.k {
		s.reached()
		<-s.ctx.Done()
		time.Sleep(20 * time.Millisecond)
		return s.ctx.Err()
	}
	s.read++
	return s.Source.Next(a)
}
