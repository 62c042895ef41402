// Package runner is the parallel evaluation engine behind the experiment
// harness: it fans a (trace × prefetcher) grid out across a worker pool,
// computes each trace and its no-prefetch baseline exactly once through
// sharded single-flight caches, and reports per-cell progress to an
// optional sink. A third single-flight cache holds recordings: the advice
// of a shareable member (a prefetch.Shared, which the registry builds
// around every PATHFINDER of serve.JobFor) is recorded once per (input,
// member configuration, budget), and every cell holding that member
// replays the recording instead of advising its own copy.
//
// Determinism contract: every job is evaluated in isolation — its trace is
// generated (or taken) read-only, its prefetcher is constructed fresh from
// the job's deterministic seed, and the simulator shares no mutable state
// between jobs or between a job's three goroutines (its baseline, its
// prefetch generation and its timed replay run side by side; the replay
// reads the generation's file chunk by chunk, in file order, and nothing
// reads the baseline) — so Run returns bit-identical Metrics for any
// Parallelism, in the submitted job order. A replayed member is no exception: its
// advice depends only on its configuration, the accesses it observes and
// the budget, and the composites pass it every access unchanged, so the
// recording holds exactly what a fresh copy would advise.
//
// Resilience: the engine converts per-job panics into typed JobErrors,
// retries transient failures with exponential backoff and deterministic
// jitter, bounds each attempt with an optional deadline, and — via
// RunWithReport — degrades gracefully, returning every surviving Result
// plus a RunReport attributing the failures instead of discarding the
// grid. An optional append-only Journal checkpoints completed cells so an
// interrupted sweep resumes where it stopped. See docs/resilience.md.
package runner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pathfinder/internal/fault"
	"pathfinder/internal/prefetch"
	"pathfinder/internal/sim"
	"pathfinder/internal/telemetry"
	"pathfinder/internal/trace"
	"pathfinder/internal/workload"
)

// Metrics summarises one prefetcher evaluation (§4.5 of the paper).
type Metrics struct {
	// Prefetcher and Trace identify the run.
	Prefetcher, Trace string
	// IPC is instructions per cycle after warmup.
	IPC float64
	// Accuracy is useful/issued prefetches; Coverage is useful prefetches
	// over baseline LLC misses.
	Accuracy, Coverage float64
	// Issued and Useful are the raw prefetch counts; BaselineMisses is
	// the no-prefetch LLC miss count coverage is relative to.
	Issued, Useful, BaselineMisses uint64
}

// Result is one evaluated job: its metrics plus engine-level measurements.
type Result struct {
	Metrics
	// BaselineIPC is the no-prefetch IPC of the job's trace (zero when the
	// job supplied a precomputed baseline, which skips the baseline run).
	BaselineIPC float64
	// Cycles is the simulated cycle count of the prefetch run.
	Cycles uint64
	// Wall is the host wall-clock time the job took, including its share
	// of cached trace/baseline builds. The baseline, prefetch generation
	// and the timed replay run side by side, the replay reading each chunk
	// of the prefetch file as it is written, so Wall is about the longest
	// of the three stages, not their sum.
	Wall time.Duration
}

// Progress is one progress event, emitted after each job reaches a
// terminal state: success, journal resume, or (under RunWithReport)
// permanent failure.
type Progress struct {
	// Done jobs out of Total in this Run call. Done is strictly monotonic
	// and reaches Total even when cells fail or are retried.
	Done, Total int
	// Trace and Prefetcher identify the finished job.
	Trace, Prefetcher string
	// Wall is the job's wall-clock time; Cycles its simulated cycles, so
	// sinks can derive simulated-cycles-per-second throughput.
	Wall   time.Duration
	Cycles uint64
	// Err is the cell's permanent failure, nil on success. Failed cells
	// only reach the sink under RunWithReport; Run aborts instead.
	Err error
	// Resumed marks a cell satisfied from the journal without
	// re-execution.
	Resumed bool
}

// ProgressFunc receives progress events. Calls are serialised and ordered
// by completion; implementations should be fast (they run under the
// engine's bookkeeping lock).
type ProgressFunc func(Progress)

// Config configures a Runner. The zero value is usable: 50 K-load traces,
// seed 1, the scaled Table 3 machine, and GOMAXPROCS workers, with the
// whole resilience stack off (no retries, no deadlines, no injection).
type Config struct {
	// Loads is the default trace length for jobs that name a workload.
	Loads int
	// Seed is the default seed for trace generation.
	Seed int64
	// Sim is the default machine configuration.
	Sim sim.Config
	// Parallelism is the worker count: it bounds the cells in flight at
	// once (default GOMAXPROCS), not their goroutines. A cell runs its
	// prefetch generation, and its baseline unless the job supplies one,
	// on goroutines of their own beside its timed replay, so up to three
	// goroutines per cell may be busy, two of them simulating.
	Parallelism int
	// Progress, if set, receives one event per completed job.
	Progress ProgressFunc
	// MaxAttempts caps evaluation attempts per job (default 1: no
	// retries). Only transient errors (fault.IsTransient) and per-attempt
	// deadline expiries are retried; panics and other deterministic
	// failures are not — the same seed would fail the same way again.
	MaxAttempts int
	// RetryBackoff is the delay before the first retry (default 50ms);
	// it doubles per further attempt, capped at 5s, plus a deterministic
	// jitter derived from the cell key so identical sweeps retry on an
	// identical schedule.
	RetryBackoff time.Duration
	// JobTimeout bounds each evaluation attempt via a context deadline
	// (0: unbounded), so one hung cell cannot stall the pool forever.
	JobTimeout time.Duration
	// Fault, if non-nil, injects faults at the engine's fault sites; the
	// default nil costs one pointer check per site. Chaos testing only.
	Fault fault.Injector
	// Journal, if non-nil, records each completed cell and resumes cells
	// it already holds (see OpenJournal).
	Journal *Journal
}

// Job is one evaluation cell: a trace and exactly one source of
// prefetches — an online prefetcher (instance or factory), an offline
// prefetch-file generator, or a precomputed file.
type Job struct {
	// Trace names a workload (generated with the effective Loads/Seed and
	// cached across jobs). Optional when Accs or Source is set, but still
	// used as the result label; it never identifies Accs or Source records.
	Trace string
	// Accs, if non-nil, is the trace to replay (bypasses generation).
	Accs []trace.Access
	// Source, if non-nil, supplies the job's trace as a stream instead of
	// a slice — the constant-memory path for traces too large to
	// materialize. It is a factory, not a stream: the evaluation replays
	// the trace up to three times (baseline, generation, timed run), and
	// once more to record a shareable member's advice, so every call must
	// return a fresh Source positioned at the first record with identical
	// records. The three passes run side by side on goroutines of their
	// own, so the factory may be called from three goroutines at once,
	// three of its streams may be open at once, and it must be safe for
	// that. Source supersedes Accs and Trace-generation;
	// Trace remains the result label. When the stream's length is unknown
	// (no Remaining), the default 10%-of-trace warmup is resolved from a
	// length the runner memoized for this SourceKey during an earlier full
	// replay; with no memo either, the job fails loudly unless Job.Warmup
	// or Sim.Warmup pins warmup explicitly (negative Job.Warmup disables
	// it). Warmup never silently resolves to zero.
	Source func(ctx context.Context) (trace.Source, error)
	// SourceKey is the cache identity of a Source or Accs job's records —
	// a content digest (trace.HashSource), a file digest, or a generator
	// spec string. It extends the journal cell key and keys the shared
	// no-prefetch baseline and recording caches; when empty the baseline
	// is recomputed per cell, shareable members are advised live, and the
	// journal key stays purely positional.
	SourceKey string
	// Label overrides the result's Prefetcher name.
	Label string

	// New builds the job's online prefetcher; preferred over Prefetcher
	// because construction then happens inside the job with the job's
	// deterministic seed. Exactly one of New, Prefetcher, GenFile, File
	// must be set (File may be an explicitly empty file for a no-prefetch
	// run via Prefetcher: prefetch.NoPrefetch{}). A prefetch.Shared that
	// New returns, alone or as an Ensemble or DynamicEnsemble member, is
	// bound to a replay of the runner's recording of it when the input has
	// a cache identity; every other prefetcher is advised for real.
	New func() (prefetch.Prefetcher, error)
	// Prefetcher is a ready-made online prefetcher. It must not be shared
	// with any other job: prefetchers are stateful.
	Prefetcher prefetch.Prefetcher
	// GenFile generates a prefetch file offline (the Delta-LSTM/Voyager
	// path). Label is required with GenFile.
	GenFile func(ctx context.Context, accs []trace.Access) ([]trace.Prefetch, error)
	// File is an already-generated prefetch file.
	File []trace.Prefetch

	// Budget caps prefetches per access (default prefetch.Budget).
	Budget int
	// Baseline, if non-nil, is a precomputed no-prefetch LLC miss count;
	// the baseline simulation is skipped.
	Baseline *uint64
	// Warmup overrides the warmup length: >0 is an explicit access count,
	// <0 disables warmup, 0 defers to Sim.Warmup and then to the default
	// 10% of the trace.
	Warmup int
	// Loads / Seed / Sim override the runner defaults for this job. A
	// job-level Sim bypasses the shared baseline cache (the machine
	// differs from the cached runs).
	Loads int
	Seed  int64
	Sim   *sim.Config
}

// Runner evaluates jobs across a worker pool, sharing per-trace work
// (generation, the no-prefetch baseline and the advice of shareable
// prefetchers) through single-flight caches. A Runner is safe for
// concurrent use; caches persist across Run calls.
type Runner struct {
	cfg        Config
	traces     flight[[]trace.Access]
	baselines  flight[baselineInfo]
	recordings flight[*prefetch.Recording]

	// srcLens memoizes input key → record count for streams that cannot
	// report their own length, learned from a completed full replay. It
	// is what lets an unknown-length stream resolve the same 10% warmup
	// default as a length-known input instead of silently warming up
	// nothing.
	srcLens sync.Map

	baselineSims atomic.Int64
}

type baselineInfo struct {
	ipc    float64
	misses uint64
}

// New builds a Runner. Zero-value Config fields take their defaults
// (50 K loads, seed 1, scaled machine, GOMAXPROCS workers).
func New(cfg Config) *Runner {
	if cfg.Loads <= 0 {
		cfg.Loads = 50_000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Sim.Width == 0 {
		cfg.Sim = sim.ScaledConfig()
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 1
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	return &Runner{cfg: cfg}
}

// BaselineSims reports how many no-prefetch baseline simulations the
// runner has actually executed — with the single-flight cache this stays
// at one per distinct trace regardless of grid size or parallelism.
func (r *Runner) BaselineSims() int64 { return r.baselineSims.Load() }

// cell threads a job's grid identity through an evaluation attempt, for
// journal keys, fault-site keys, and error attribution.
type cell struct {
	index   int
	key     string
	attempt int
}

// cellKey is the stable identity of a grid cell across runs of the same
// sweep: position, trace, label, and the effective loads/seed. It is the
// journal key and the fault-injection key. A Source job's SourceKey is
// appended only when present, so journals written before streaming jobs
// existed resume under unchanged keys.
func (r *Runner) cellKey(i int, job Job) string {
	loads, seed, _ := r.effective(job)
	key := fmt.Sprintf("%d|%s|%s|%d|%d", i, job.Trace, job.Label, loads, seed)
	if job.SourceKey != "" {
		key += "|" + job.SourceKey
	}
	return key
}

// CellKey exposes the stable cell identity for external schedulers: the
// distributed sweep coordinator (internal/dist) keys its lease table and
// shared ledger with exactly the keys a single-process run journals under,
// which is what lets a sweep move between the two worlds and resume
// bit-identically.
func (r *Runner) CellKey(i int, job Job) string { return r.cellKey(i, job) }

// Run evaluates the jobs across the worker pool and returns one Result
// per job, in job order. It is all-or-nothing: the first permanent job
// failure (or cancellation) aborts the grid, waits for in-flight workers
// to wind down — no goroutines outlive the call — and the returned
// results must be discarded. Retries, deadlines, and the journal still
// apply; use RunWithReport to keep going past failed cells instead.
func (r *Runner) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	results, _, err := r.run(ctx, jobs, true)
	if err != nil {
		return nil, err
	}
	return results, nil
}

// RunWithReport evaluates the jobs with graceful degradation: permanently
// failed cells are recorded in the report (and left zero-valued in the
// results) while the rest of the grid completes. The error is non-nil
// only for whole-run failures — cancellation or a journal write error —
// in which case the results must be discarded. Surviving results are
// bit-identical to the same cells of a fault-free run.
func (r *Runner) RunWithReport(ctx context.Context, jobs []Job) ([]Result, *RunReport, error) {
	return r.run(ctx, jobs, false)
}

// run is the shared grid loop. failFast selects Run's all-or-nothing
// contract; otherwise failures degrade into the report.
func (r *Runner) run(ctx context.Context, jobs []Job, failFast bool) ([]Result, *RunReport, error) {
	report := &RunReport{Total: len(jobs)}
	if len(jobs) == 0 {
		return nil, report, nil
	}
	start := time.Now()
	results := make([]Result, len(jobs))
	var mu sync.Mutex
	err := ForEach(ctx, r.cfg.Parallelism, len(jobs), func(ctx context.Context, i int) error {
		res, p, retries, err := r.evalCell(ctx, i, jobs[i])
		if err == nil && failFast {
			err = p.Err
		}
		if err != nil {
			return err
		}
		results[i] = res
		// Publish the cell's terminal state under the bookkeeping lock:
		// report counters, then the serialised progress event.
		mu.Lock()
		defer mu.Unlock()
		report.Retries += retries
		switch {
		case p.Err != nil:
			report.Failed = append(report.Failed, p.Err.(*JobError))
		case p.Resumed:
			report.Resumed++
		default:
			report.Completed++
		}
		p.Done, p.Total = report.Completed+report.Resumed+len(report.Failed), len(jobs)
		if r.cfg.Progress != nil {
			r.cfg.Progress(p)
		}
		return nil
	})

	report.Wall = time.Since(start)
	// The final telemetry block: a snapshot of the process-wide registry
	// (nil when telemetry is off). Cumulative across Run calls, so a
	// resumed sweep's report covers the fresh run plus the resume.
	report.Telemetry = telemetry.GlobalSnapshot()
	sort.Slice(report.Failed, func(a, b int) bool { return report.Failed[a].Index < report.Failed[b].Index })
	if err != nil {
		return nil, report, err
	}
	return results, report, nil
}

// runCell evaluates one cell with the retry policy: up to MaxAttempts
// attempts, each optionally deadline-bounded, retrying only transient
// errors and attempt-deadline expiries with exponential backoff and
// deterministic jitter. It returns the attempts consumed alongside the
// result or final error.
func (r *Runner) runCell(ctx context.Context, idx int, job Job, key string) (Result, int, error) {
	var lastErr error
	for attempt := 0; attempt < r.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, backoffDelay(r.cfg.RetryBackoff, key, attempt)); err != nil {
				return Result{}, attempt, err
			}
		}
		attemptCtx, cancel := ctx, context.CancelFunc(func() {})
		if r.cfg.JobTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, r.cfg.JobTimeout)
		}
		res, err := r.safeEval(attemptCtx, job, cell{index: idx, key: key, attempt: attempt})
		cancel()
		if err == nil {
			return res, attempt + 1, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			// The parent context died: cancellation, not a cell verdict.
			return Result{}, attempt + 1, ctx.Err()
		}
		if !retryable(err) {
			return Result{}, attempt + 1, err
		}
	}
	return Result{}, r.cfg.MaxAttempts, lastErr
}

// retryable reports whether an attempt error may clear on retry: errors
// marked transient, and attempt-deadline expiries (the parent context is
// known live when this is called).
func retryable(err error) bool {
	return fault.IsTransient(err) || errors.Is(err, context.DeadlineExceeded)
}

// backoffDelay is the pre-retry delay: RetryBackoff doubled per attempt
// (capped at 5s) plus up to 50% deterministic jitter hashed from the cell
// key, so a thundering herd of retries decorrelates identically on every
// run.
func backoffDelay(base time.Duration, key string, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < 5*time.Second; i++ {
		d *= 2
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	h := fnv1a(fmt.Sprintf("%s\x00%d", key, attempt))
	return d + time.Duration(uint64(d/2)*uint64(h)/(1<<32))
}

// sleepCtx blocks for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// safeEval runs one evaluation attempt with panic containment: a
// panicking job (or prefetcher, or simulator) becomes a typed PanicError
// carrying the stack instead of killing the whole process.
func (r *Runner) safeEval(ctx context.Context, job Job, c cell) (res Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	return r.eval(ctx, job, c)
}

// inject fires a fault site; the nil Injector default is one pointer
// check.
func (r *Runner) inject(ctx context.Context, site fault.Site, key string, attempt int) error {
	if r.cfg.Fault == nil {
		return nil
	}
	return r.cfg.Fault.Inject(ctx, site, key, attempt)
}

// Eval evaluates a single job on the calling goroutine (no pool), still
// sharing the runner's caches, retry policy, and journal, and emitting a
// 1/1 progress event.
func (r *Runner) Eval(ctx context.Context, job Job) (Result, error) {
	return r.EvalCell(ctx, 0, job)
}

// EvalCell is Eval with an explicit grid position: the cell key (journal
// identity, fault-injection key) and error attribution carry index rather
// than 0. Distributed sweep workers evaluate coordinator-granted cells
// through this entry point so a cell behaves identically to the same cell
// of a single-process grid run.
func (r *Runner) EvalCell(ctx context.Context, index int, job Job) (Result, error) {
	res, p, _, err := r.evalCell(ctx, index, job)
	if err == nil {
		err = p.Err
	}
	if err != nil {
		return Result{}, err
	}
	if r.cfg.Progress != nil {
		p.Done, p.Total = 1, 1
		r.cfg.Progress(p)
	}
	return res, nil
}

// evalCell takes one cell to its terminal state — a journal resume, or
// runCell under the retry policy followed by the journal record — and
// records that state in telemetry. It returns the cell's result, its
// progress event (Done and Total unset; Err the cell's *JobError when it
// failed permanently) and the retries it took. err is a whole-run failure
// only: cancellation, or a journal write error, since losing checkpoints
// would make a resume silently repeat finished work.
func (r *Runner) evalCell(ctx context.Context, index int, job Job) (res Result, p Progress, retries int, err error) {
	key := r.cellKey(index, job)
	if r.cfg.Journal != nil {
		if res, ok := r.cfg.Journal.Lookup(key); ok {
			observeTerminal(int64(res.Wall), 0, false, true)
			return res, Progress{
				Trace: res.Trace, Prefetcher: res.Prefetcher,
				Wall: res.Wall, Cycles: res.Cycles, Resumed: true,
			}, 0, nil
		}
	}
	res, attempts, err := r.runCell(ctx, index, job, key)
	if err != nil {
		if ctx.Err() != nil {
			// The run was cancelled out from under the cell; that is not
			// the cell's failure.
			return Result{}, Progress{}, 0, ctx.Err()
		}
		observeTerminal(0, attempts-1, true, false)
		return Result{}, Progress{
			Trace: job.Trace, Prefetcher: job.Label, Err: newJobError(index, job, attempts, err),
		}, attempts - 1, nil
	}
	if r.cfg.Journal != nil {
		if err := r.cfg.Journal.Record(key, res); err != nil {
			return Result{}, Progress{}, 0, err
		}
	}
	observeTerminal(int64(res.Wall), attempts-1, false, false)
	return res, Progress{
		Trace: res.Trace, Prefetcher: res.Prefetcher,
		Wall: res.Wall, Cycles: res.Cycles,
	}, attempts - 1, nil
}

// effective resolves a job's loads/seed/sim against the runner defaults.
func (r *Runner) effective(job Job) (loads int, seed int64, cfg sim.Config) {
	loads, seed, cfg = r.cfg.Loads, r.cfg.Seed, r.cfg.Sim
	if job.Loads > 0 {
		loads = job.Loads
	}
	if job.Seed != 0 {
		seed = job.Seed
	}
	if job.Sim != nil {
		cfg = *job.Sim
	}
	return loads, seed, cfg
}

// countingSource counts records pulled through it, so a full replay of an
// unknown-length stream records the trace length for the srcLens memo.
type countingSource struct {
	src trace.Source
	n   int
}

func (c *countingSource) Next(a *trace.Access) error {
	err := c.src.Next(a)
	if err == nil {
		c.n++
	}
	return err
}

// resolveWarmup applies the warmup precedence: job override, then the sim
// config, then the conventional 10% of the trace.
func resolveWarmup(jobWarmup, simWarmup, n int) int {
	switch {
	case jobWarmup > 0:
		return jobWarmup
	case jobWarmup < 0:
		return 0
	case simWarmup > 0:
		return simWarmup
	}
	return n / 10
}

// input is a job's trace resolved once per attempt. Every stage —
// baseline, prefetch generation, timed replay — opens its own stream over
// the same records, so the stages share one code path whether the records
// live in memory or behind a Source factory.
type input struct {
	accs   []trace.Access                              // in-memory records, when source is nil
	source func(context.Context) (trace.Source, error) // the job's stream factory
	first  trace.Source                                // an opened, unread stream handed out by the next open
	n      int                                         // record count, valid when known
	known  bool
	key    string // baseline-cache identity; "" leaves the baseline uncached
}

// open returns a fresh stream positioned at the first record. Each of a
// cell's goroutines opens streams from its own copy of the input, and only
// the generation goroutine's copy holds the resolved stream, so that
// stream goes to exactly one stage.
func (in *input) open(ctx context.Context) (trace.Source, error) {
	if src := in.first; src != nil {
		in.first = nil
		return src, nil
	}
	if in.source != nil {
		return in.source(ctx)
	}
	return trace.NewSliceSource(in.accs), nil
}

// resolve turns a job into its trace input. A named trace is generated
// once per (name, loads, seed) through the single-flight trace cache and
// keyed by that triple. Source and Accs jobs are keyed only by their
// SourceKey: a Trace label does not identify records. A Source is opened
// once here to learn its length (or recall one memoized under its key),
// and that unread stream feeds the generation goroutine's first
// stream-reading stage.
func (r *Runner) resolve(ctx context.Context, job Job, c cell) (input, error) {
	var in input
	if job.SourceKey != "" {
		in.key = "src\x00" + job.SourceKey
	}
	switch {
	case job.Source != nil:
		if err := r.inject(ctx, fault.SiteTraceDecode, c.key, c.attempt); err != nil {
			return input{}, err
		}
		src, err := job.Source(ctx)
		if err != nil {
			return input{}, err
		}
		in.source, in.first = job.Source, src
		if s, ok := src.(interface{ Remaining() (uint64, bool) }); ok {
			if rem, known := s.Remaining(); known {
				in.n, in.known = int(rem), true
				if in.key != "" {
					r.srcLens.Store(in.key, in.n)
				}
			}
		}
		if !in.known && in.key != "" {
			if v, ok := r.srcLens.Load(in.key); ok {
				in.n, in.known = v.(int), true
			}
		}
		return in, nil
	case job.Accs != nil:
		in.accs = job.Accs
	case job.Trace == "":
		return input{}, fmt.Errorf("job has neither a trace name nor accesses")
	default:
		loads, seed, _ := r.effective(job)
		key := job.Trace + "\x00" + strconv.Itoa(loads) + "\x00" + strconv.FormatInt(seed, 10)
		accs, err := r.traces.Do(ctx, key, func() ([]trace.Access, error) {
			if err := r.inject(ctx, fault.SiteTraceDecode, key, c.attempt); err != nil {
				return nil, err
			}
			return workload.GenerateCtx(ctx, job.Trace, loads, seed)
		})
		if err != nil {
			return input{}, err
		}
		in.accs, in.key = accs, key
	}
	in.n, in.known = len(in.accs), true
	return in, nil
}

// eval runs one job end to end: trace, baseline, prefetch file, timed
// replay. Once the input is resolved, three goroutines share the cell: the
// baseline runs on its own, prefetch generation on another, writing the
// file in chunks, and the timed replay on the caller's, reading each chunk
// as it is written. Neither reads the baseline, so a cell takes about the
// longest of the three stages rather than their sum. The stages join
// before the Result is built, and a failure keeps the serial precedence:
// baseline, then generation, then replay.
func (r *Runner) eval(ctx context.Context, job Job, c cell) (res Result, err error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if err := r.inject(ctx, fault.SiteJobStart, c.key, c.attempt); err != nil {
		return Result{}, err
	}
	_, _, cfg := r.effective(job)
	in, err := r.resolve(ctx, job, c)
	if err != nil {
		return Result{}, err
	}
	if in.known && in.n == 0 {
		return Result{}, fmt.Errorf("empty trace")
	}
	// With no length to take 10% of, a defaulted warmup would silently
	// resolve to zero; that is a loud error unless warmup is pinned.
	if !in.known && job.Warmup == 0 && cfg.Warmup == 0 {
		return Result{}, fmt.Errorf("job %q (trace %q): stream length unknown, so the default 10%%-of-trace warmup cannot be resolved and would silently become zero, diverging from a length-known input of the same records; set Job.Warmup explicitly (negative disables warmup) or replay a length-known source under the same SourceKey first", c.key, job.Trace)
	}
	cfg.Warmup = resolveWarmup(job.Warmup, cfg.Warmup, in.n)

	var base *pendingBaseline
	if job.Baseline == nil {
		base = r.startBaseline(ctx, job, cfg, &in, c)
		defer base.join(&res, &err)
	}
	gen := r.startGeneration(ctx, job, &in, c)
	defer gen.join(&res, &err)

	if err := r.inject(ctx, fault.SiteSimulate, c.key, c.attempt); err != nil {
		return Result{}, err
	}
	timed, err := in.open(ctx)
	if err != nil {
		return Result{}, err
	}
	// A length neither the source nor the memo knew is learned here: the
	// timed replay consumes the stream to EOF, so its record count is the
	// trace length, and the next job under this key resolves the standard
	// warmup default.
	var counter *countingSource
	if !in.known && in.key != "" {
		counter = &countingSource{src: timed}
		timed = counter
	}
	eng, release := sim.AcquireEngine(cfg)
	defer release()
	sr, err := eng.RunFeedCtx(ctx, timed, gen)
	if err != nil {
		return Result{}, err
	}
	label, err := gen.wait()
	if err != nil {
		return Result{}, err
	}
	if counter != nil {
		r.srcLens.Store(in.key, counter.n)
	}
	var b baselineInfo
	if base != nil {
		base.done.Wait()
		if base.err != nil {
			return Result{}, base.err
		}
		b = base.info
	} else {
		b.misses = *job.Baseline
	}
	return Result{
		Metrics: Metrics{
			Prefetcher:     label,
			Trace:          job.Trace,
			IPC:            sr.IPC,
			Accuracy:       sr.Accuracy(),
			Coverage:       sr.Coverage(b.misses),
			Issued:         sr.PrefIssued,
			Useful:         sr.PrefUseful,
			BaselineMisses: b.misses,
		},
		BaselineIPC: b.ipc,
		Cycles:      sr.Cycles,
		Wall:        time.Since(start),
	}, nil
}

// pendingBaseline is a cell's baseline running on its own goroutine: the
// goroutine's own copies of the stage's arguments, and its outcome.
type pendingBaseline struct {
	job  Job
	cfg  sim.Config
	in   input
	c    cell
	done sync.WaitGroup
	info baselineInfo
	err  error
}

// startBaseline starts the cell's baseline on a new goroutine. Its copy of
// the input leaves the resolved stream to generation, so it shares no
// mutable state with the cell's other goroutines. A panic there becomes
// the baseline's *PanicError, as safeEval does for the cell.
func (r *Runner) startBaseline(ctx context.Context, job Job, cfg sim.Config, in *input, c cell) *pendingBaseline {
	b := &pendingBaseline{job: job, cfg: cfg, in: *in, c: c}
	b.in.first = nil
	b.done.Add(1)
	go func() {
		defer b.done.Done()
		defer func() {
			if p := recover(); p != nil {
				b.err = &PanicError{Value: p, Stack: debug.Stack()}
			}
		}()
		b.info, b.err = r.baseline(ctx, b.job, b.cfg, &b.in, b.c)
	}()
	return b
}

// join is deferred by eval, so the cell returns on no path — success,
// error or a panic — before its baseline goroutine has exited. It keeps
// the serial precedence: a baseline failure is the cell's failure even
// when generation or the replay failed or panicked too.
func (b *pendingBaseline) join(res *Result, err *error) {
	b.done.Wait()
	if b.err != nil {
		recover() // a replay panic, if any, is outranked
		*res, *err = Result{}, b.err
	}
}

// baseline returns the input's no-prefetch simulation, through the
// single-flight cache when the input has a cache identity and the job runs
// on the shared machine configuration. When another cell already holds or
// is building the entry, no stream is opened.
func (r *Runner) baseline(ctx context.Context, job Job, cfg sim.Config, in *input, c cell) (baselineInfo, error) {
	run := func() (baselineInfo, error) {
		if err := r.inject(ctx, fault.SiteBaseline, c.key, c.attempt); err != nil {
			return baselineInfo{}, err
		}
		src, err := in.open(ctx)
		if err != nil {
			return baselineInfo{}, err
		}
		r.baselineSims.Add(1)
		if m := runnerTele.Load(); m != nil {
			m.baselineSims.Inc()
		}
		eng, release := sim.AcquireEngine(cfg)
		defer release()
		res, err := eng.RunStreamCtx(ctx, src, nil)
		if err != nil {
			return baselineInfo{}, fmt.Errorf("baseline simulation: %w", err)
		}
		return baselineInfo{ipc: res.IPC, misses: res.LLCLoadMisses}, nil
	}
	// A per-job machine override or an input without an identity is not
	// cacheable: the key could not distinguish it from the shared runs.
	if job.Sim != nil || in.key == "" {
		return run()
	}
	return r.baselines.Do(ctx, in.key+"\x00"+strconv.Itoa(cfg.Warmup), run)
}

// feedDepth is how many chunk buffers a cell's generation cycles through:
// the one the replay reads, the one generation fills, and two written
// chunks queued between them, so neither stage waits on the other's
// uneven pace from chunk to chunk.
const feedDepth = 4

// errGenerationStopped ends a timed replay whose generation failed; the
// cell reports the generation's error instead.
var errGenerationStopped = errors.New("prefetch generation stopped")

// generation is a cell's prefetch generation running on its own
// goroutine, writing the prefetch file in chunks that the timed replay
// reads through Next. Chunk k fills bufs[k%feedDepth]: written is
// buffered feedDepth-2 deep, so generation refills a buffer only once the
// replay has taken the chunk after the one that used it last and is done
// with that one. The goroutine owns its copies of the stage's arguments
// and the resolved stream; its outcome is written before written closes.
type generation struct {
	ctx context.Context
	job Job
	in  input
	c   cell

	bufs    [feedDepth][]trace.Prefetch
	budget  int         // most entries per access
	written chan uint64 // per chunk, the id the file is complete through
	sent    int         // chunks sent, the generation goroutine's count
	taken   int         // chunks taken, the replay's count

	label string
	err   error
}

// startGeneration starts the cell's prefetch generation on a new
// goroutine. It takes the resolved stream from in: the cell's timed
// replay opens its own. A panic there becomes the generation's
// *PanicError, as safeEval does for the cell.
func (r *Runner) startGeneration(ctx context.Context, job Job, in *input, c cell) *generation {
	g := &generation{ctx: ctx, job: job, in: *in, c: c, written: make(chan uint64, feedDepth-2)}
	in.first = nil
	go func() {
		defer close(g.written)
		defer func() {
			if p := recover(); p != nil {
				g.err = &PanicError{Value: p, Stack: debug.Stack()}
			}
		}()
		g.label, g.err = r.generate(g)
	}()
	return g
}

// emit sends a written chunk to the replay and returns the buffer for the
// next one. The file's last chunk, complete through every id, needs no
// successor.
func (g *generation) emit(chunk []trace.Prefetch, through uint64) ([]trace.Prefetch, error) {
	g.bufs[g.sent%feedDepth] = chunk
	select {
	case g.written <- through:
	case <-g.ctx.Done():
		return nil, g.ctx.Err()
	}
	g.sent++
	if through == math.MaxUint64 {
		return nil, nil
	}
	return g.buffer(), nil
}

// buffer returns the buffer for chunk sent, emptied: the one chunk
// sent-feedDepth used. The first call carves all of them out of one
// allocation sized, as GenerateFileStreamCtx presizes a file, for the
// accesses they can cover: a short cell's file, or feedDepth chunks.
func (g *generation) buffer() []trace.Prefetch {
	if g.sent == 0 {
		n := feedDepth * prefetch.ChunkAccesses
		if g.in.known {
			n = min(n, g.in.n)
		}
		all := make([]trace.Prefetch, n*g.budget)
		for i := range g.bufs {
			lo := min(i*prefetch.ChunkAccesses, n) * g.budget
			hi := min((i+1)*prefetch.ChunkAccesses, n) * g.budget
			g.bufs[i] = all[lo:lo:hi]
		}
	}
	return g.bufs[g.sent%feedDepth][:0]
}

// Next implements sim.PrefetchFeed for the timed replay: the next written
// chunk, or errGenerationStopped once generation has ended without
// completing the file.
func (g *generation) Next() ([]trace.Prefetch, uint64, error) {
	select {
	case through, ok := <-g.written:
		if !ok {
			return nil, 0, errGenerationStopped
		}
		chunk := g.bufs[g.taken%feedDepth]
		g.taken++
		return chunk, through, nil
	case <-g.ctx.Done():
		return nil, 0, g.ctx.Err()
	}
}

// wait takes and drops every chunk the replay left until generation ends,
// so a finished or failed replay never leaves it blocked, and returns its
// label and error.
func (g *generation) wait() (string, error) {
	for range g.written {
	}
	return g.label, g.err
}

// join is deferred by eval after the baseline's join, so it runs first:
// the cell returns on no path — success, error, cancellation or a replay
// panic — before its generation goroutine has exited. A generation
// failure is the cell's failure even when the replay failed or panicked
// too; the baseline's join then outranks both.
func (g *generation) join(res *Result, err *error) {
	if _, gerr := g.wait(); gerr != nil {
		recover() // a replay panic, if any, is outranked
		*res, *err = Result{}, gerr
	}
}

// generate writes the job's prefetch file into g and returns the result
// label. Online prefetchers advise over a stream of the input, and the
// replay reads their file a chunk at a time; GenFile generators take a
// slice by signature, so they get the input collected (offline trainers
// need the materialized trace anyway), and their file, like a File job's,
// is a single chunk.
func (r *Runner) generate(g *generation) (string, error) {
	ctx, job, in, c := g.ctx, g.job, &g.in, g.c
	label := job.Label
	switch {
	case job.File != nil:
		if label == "" {
			label = "file"
		}
		_, err := g.emit(job.File, math.MaxUint64)
		return label, err
	case job.GenFile != nil:
		if label == "" {
			return "", fmt.Errorf("GenFile job needs a Label")
		}
		if err := r.inject(ctx, fault.SitePrefetchGen, c.key, c.attempt); err != nil {
			return "", err
		}
		src, err := in.open(ctx)
		if err != nil {
			return "", err
		}
		accs, err := trace.Collect(src)
		if err != nil {
			return "", err
		}
		pfs, err := job.GenFile(ctx, accs)
		if err != nil {
			return "", err
		}
		_, err = g.emit(pfs, math.MaxUint64)
		return label, err
	case job.New != nil, job.Prefetcher != nil:
		if err := r.inject(ctx, fault.SitePrefetchGen, c.key, c.attempt); err != nil {
			return "", err
		}
		p := job.Prefetcher
		if job.New != nil {
			var err error
			if p, err = job.New(); err != nil {
				return "", err
			}
		}
		budget := job.Budget
		if budget <= 0 {
			budget = prefetch.Budget
		}
		var rep *prefetch.Replay
		if s := prefetch.SharedMember(p); s != nil && in.key != "" && job.New != nil {
			rec, err := r.recording(ctx, s, in, budget)
			if err != nil {
				return "", err
			}
			rep = prefetch.NewReplay(s.Name(), rec)
			s.Use(rep)
		}
		src, err := in.open(ctx)
		if err != nil {
			return "", err
		}
		g.budget = budget
		if err := prefetch.GenerateChunksCtx(ctx, p, src, budget, g.buffer(), g.emit); err != nil {
			return "", err
		}
		if rep != nil {
			if err := rep.Finish(); err != nil {
				return "", err
			}
		}
		if label == "" {
			label = p.Name()
		}
		return label, nil
	}
	return "", fmt.Errorf("job has no prefetcher, generator, or file")
}

// recording returns the advice of a shareable member's live copy over the
// input at the budget. It is built once per (input identity, member key,
// budget) through the single-flight recording cache: every cell holding a
// member of that key on that input replays it instead of advising its own
// copy, which gives the same advice because composites pass their members
// every access unchanged.
func (r *Runner) recording(ctx context.Context, s *prefetch.Shared, in *input, budget int) (*prefetch.Recording, error) {
	key := in.key + "\x00" + s.Key() + "\x00" + strconv.Itoa(budget)
	return r.recordings.Do(ctx, key, func() (*prefetch.Recording, error) {
		p, err := s.Build()
		if err != nil {
			return nil, err
		}
		src, err := in.open(ctx)
		if err != nil {
			return nil, err
		}
		return prefetch.Record(ctx, p, src, budget)
	})
}

// ForEach runs fn(ctx, i) for every i in [0, n) across a worker pool of
// the given size (0 means GOMAXPROCS), stopping at the first error or
// cancellation; the ctx fn receives is cancelled then, so calls in flight
// stop too. It is the grid loop of Run and RunWithReport, and the
// runner's escape hatch for experiment loops that are not
// (trace × prefetcher) simulation cells — per-trace statistics, multi-core
// interference runs — but should still saturate the machine.
func ForEach(ctx context.Context, parallelism, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}
	idxc := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxc {
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				if err := fn(ctx, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idxc <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idxc)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
