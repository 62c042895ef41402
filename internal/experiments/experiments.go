// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each experiment is a function that runs the relevant
// sweep, prints the same rows/series the paper reports as a text table, and
// returns the results in structured form for tests and EXPERIMENTS.md.
//
// Experiments are configured with functional options and submit their
// (trace × prefetcher) grids to the parallel evaluation engine in
// internal/runner, so a full sweep saturates every core while producing
// results bit-identical to a serial run. The harness defaults to 50 K-load
// traces against the 8×-scaled hierarchy (see sim.ScaledConfig); pass
// WithLoads(1_000_000) and WithSim(pathfinder.DefaultSimConfig()) for
// paper-scale runs.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
	"time"

	"pathfinder/internal/core"
	"pathfinder/internal/runner"
	"pathfinder/internal/serve"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

// Metrics is one (trace, prefetcher) measurement (§4.5).
type Metrics = runner.Metrics

// Progress is one evaluation-engine progress event (see WithProgress).
type Progress = runner.Progress

// Option configures an experiment run.
type Option func(*options)

// options carries the resolved configuration of one experiment run.
type options struct {
	ctx         context.Context
	loads       int
	seed        int64
	traces      []string
	sim         sim.Config
	skipOffline bool
	parallelism int
	progress    runner.ProgressFunc
	maxAttempts int
	jobTimeout  time.Duration
	journal     *runner.Journal
}

// newOptions applies the options over the defaults: 50 K loads, seed 1,
// the full Table 5 suite, the scaled machine, GOMAXPROCS workers.
func newOptions(opts []Option) options {
	o := options{ctx: context.Background(), loads: 50_000, seed: 1}
	for _, fn := range opts {
		fn(&o)
	}
	if len(o.traces) == 0 {
		o.traces = workload.Names()
	}
	if o.sim.Width == 0 {
		o.sim = sim.ScaledConfig()
	}
	return o
}

// WithLoads sets the trace length per benchmark (default 50_000; the
// paper uses 1_000_000).
func WithLoads(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.loads = n
		}
	}
}

// WithSeed sets the seed driving trace generation and every learner.
func WithSeed(seed int64) Option {
	return func(o *options) {
		if seed != 0 {
			o.seed = seed
		}
	}
}

// WithTraces restricts the benchmark set (default: the full Table 5 suite).
func WithTraces(names ...string) Option {
	return func(o *options) { o.traces = names }
}

// WithSim sets the machine configuration (default: the scaled hierarchy).
func WithSim(cfg sim.Config) Option {
	return func(o *options) { o.sim = cfg }
}

// WithSkipOffline omits the offline neural baselines (Delta-LSTM,
// Voyager), which dominate runtime.
func WithSkipOffline(skip bool) Option {
	return func(o *options) { o.skipOffline = skip }
}

// WithParallelism sets the evaluation-engine worker count (default
// GOMAXPROCS). One worker reproduces the historical serial behaviour;
// results are bit-identical either way.
func WithParallelism(n int) Option {
	return func(o *options) { o.parallelism = n }
}

// WithProgress installs a sink receiving one event per completed
// evaluation cell (jobs done, wall clock, simulated cycles).
func WithProgress(fn func(Progress)) Option {
	return func(o *options) { o.progress = fn }
}

// WithContext threads a cancellation context through trace generation,
// prefetch-file generation and the simulator; a cancelled experiment
// stops mid-grid.
func WithContext(ctx context.Context) Option {
	return func(o *options) {
		if ctx != nil {
			o.ctx = ctx
		}
	}
}

// WithRetries sets the per-cell attempt budget of the evaluation engine
// (default 1, i.e. no retries). Only transient failures and per-attempt
// deadline expiries are retried; see the runner package.
func WithRetries(attempts int) Option {
	return func(o *options) { o.maxAttempts = attempts }
}

// WithJobTimeout bounds each evaluation attempt with a context deadline
// (default: no limit).
func WithJobTimeout(d time.Duration) Option {
	return func(o *options) { o.jobTimeout = d }
}

// WithJournal records every completed cell to an on-disk journal and
// resumes from it: cells already present are served from the journal
// instead of being re-simulated. See runner.OpenJournal.
func WithJournal(j *runner.Journal) Option {
	return func(o *options) { o.journal = j }
}

// run submits one grid to the parallel evaluation engine. A cell failure
// fails the sweep, and results come back in grid order.
func (o options) run(jobs []runner.Job) ([]runner.Result, error) {
	return runner.New(runner.Config{
		Loads:       o.loads,
		Seed:        o.seed,
		Sim:         o.sim,
		Parallelism: o.parallelism,
		Progress:    o.progress,
		MaxAttempts: o.maxAttempts,
		JobTimeout:  o.jobTimeout,
		Journal:     o.journal,
	}).Run(o.ctx, jobs)
}

// job resolves a technique of the registry (serve.JobFor) into one grid
// cell on trace tr, shown and journaled under label.
func (o options) job(tr, label, technique string) (runner.Job, error) {
	job, err := serve.JobFor(serve.EvalRequest{Trace: tr, Prefetcher: technique, Seed: o.seed})
	if err != nil {
		return runner.Job{}, fmt.Errorf("experiments: %w", err)
	}
	job.Label = label
	return job, nil
}

// newPathfinder builds a fresh PATHFINDER with the experiment seed.
func newPathfinder(cfg core.Config, seed int64) (*core.Pathfinder, error) {
	cfg.Seed = seed
	return core.New(cfg)
}

// geomean returns the geometric mean of positive values (the conventional
// aggregate for IPC ratios); zero values are skipped.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// mean returns the arithmetic mean of the values.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// newTable returns a tab-aligned writer for experiment output.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
