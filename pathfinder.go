// Package pathfinder is a from-scratch Go reproduction of PATHFINDER
// (ASPLOS 2024): a hardware data prefetcher that learns within-page address
// delta patterns in real time with a spiking neural network trained by
// spike-timing-dependent plasticity (STDP).
//
// The package is the public facade over the full system:
//
//   - the PATHFINDER prefetcher and its SNN substrate (New, DefaultConfig);
//   - every online technique the paper compares against — NextLine,
//     Best-Offset, SPP, an idealized SISB, Pythia and the rest — built by
//     name from the technique registry (NewPrefetcherByName), the
//     composers that combine prefetchers (NewEnsemble,
//     NewDynamicEnsemble, NewThrottle), and the offline neural baselines
//     Delta-LSTM and Voyager (GenerateDeltaLSTM, GenerateVoyager);
//   - synthetic workload generators standing in for the paper's GAP /
//     SPEC / CloudSuite traces (Workloads, GenerateTraceSource);
//   - the streaming trace surface: pull-based sources, constant-memory
//     decoders and bounded-heap replay for traces of any length
//     (TraceSource, OpenTraceFile, NewTraceReader);
//   - the trace-driven timing simulator that turns prefetch files into
//     IPC, accuracy and coverage (Simulate, Eval);
//   - the parallel evaluation engine that fans (trace × prefetcher) grids
//     across all cores (Runner, EvalJob, EvalResult);
//   - the hardware cost model of §3.5 (HardwareCost).
//
// A minimal end-to-end run:
//
//	pf, _ := pathfinder.New(pathfinder.DefaultConfig())
//	m, _ := pathfinder.Eval(context.Background(), pathfinder.EvalJob{
//		Trace: "cc-5", Loads: 100_000, Prefetcher: pf,
//	})
//	fmt.Printf("IPC %.3f accuracy %.2f coverage %.2f\n", m.IPC, m.Accuracy, m.Coverage)
package pathfinder

import (
	"context"
	"io"
	"os"

	"pathfinder/internal/core"
	"pathfinder/internal/hwcost"
	"pathfinder/internal/lstm"
	"pathfinder/internal/prefetch"
	"pathfinder/internal/runner"
	"pathfinder/internal/sim"
	"pathfinder/internal/snn"
	"pathfinder/internal/trace"
	"pathfinder/internal/workload"
)

// Core prefetcher types.
type (
	// Config selects a PATHFINDER variant (§3); see DefaultConfig.
	Config = core.Config
	// Prefetcher is a PATHFINDER instance. It implements OnlinePrefetcher.
	Prefetcher = core.Pathfinder
	// Stats are PATHFINDER's internal counters.
	Stats = core.Stats
)

// Trace types.
type (
	// Access is one load of a memory trace.
	Access = trace.Access
	// PrefetchEntry is one record of a prefetch file.
	PrefetchEntry = trace.Prefetch
	// TraceSource is the pull-based trace iterator the streaming stack is
	// built on: Next fills the access and returns nil, io.EOF after the
	// last record, or a positioned decode error. Sources additionally
	// exposing Remaining() (uint64, bool) let consumers pre-size and keep
	// up-front warmup validation.
	TraceSource = trace.Source
)

// Simulation types.
type (
	// SimConfig is the machine configuration (Table 3 defaults).
	SimConfig = sim.Config
	// SimResult carries one simulation's measurements.
	SimResult = sim.Result
)

// OnlinePrefetcher is the common interface of PATHFINDER and the online
// baselines: observe one access, suggest up to budget prefetch addresses.
type OnlinePrefetcher = prefetch.Prefetcher

// SNN types, exposed for the §3.6 demonstrations.
type (
	// SNNConfig holds the spiking-network hyper-parameters (Table 4).
	SNNConfig = snn.Config
	// SNN is the Diehl & Cook spiking network PATHFINDER queries.
	SNN = snn.Network
	// SNNMonitor records per-tick potentials and spikes (Figure 3).
	SNNMonitor = snn.Monitor
)

// Hardware cost types (§3.5, Table 9).
type (
	// HWConfig describes a PATHFINDER hardware configuration for costing.
	HWConfig = hwcost.Config
	// HWCost is an area/power estimate at 12 nm.
	HWCost = hwcost.Cost
)

// Offline baseline configurations.
type (
	// DeltaLSTMConfig configures the Delta-LSTM baseline.
	DeltaLSTMConfig = lstm.DeltaLSTMConfig
	// VoyagerConfig configures the Voyager baseline.
	VoyagerConfig = lstm.VoyagerConfig
)

// Budget is the per-access prefetch budget used throughout the evaluation
// (§4.5: at most 2 prefetches per access).
const Budget = prefetch.Budget

// DefaultConfig returns the paper's high-accuracy PATHFINDER configuration
// (Figure 4): 50 neurons, 2 labels per neuron, delta range ±63, 32-tick
// interval, degree 2.
func DefaultConfig() Config { return core.DefaultConfig() }

// New builds a PATHFINDER prefetcher.
func New(cfg Config) (*Prefetcher, error) { return core.New(cfg) }

// LoadPrefetcher restores a trained PATHFINDER saved with
// (*Prefetcher).Save: the SNN weights, adaptive thresholds, and the
// Inference Table labels persist; the transient Training Table re-warms on
// its own within a few accesses per page.
func LoadPrefetcher(r io.Reader) (*Prefetcher, error) { return core.Load(r) }

// LoadSessionPrefetcher restores a PATHFINDER saved with
// (*Prefetcher).SaveSession — the exact-continuation snapshot that also
// carries the Training Table and RNG position, so the restored prefetcher
// advises bit-identically to one that was never serialized. It accepts
// plain Save blobs too (their transients start fresh). The serving
// daemon's eviction spill (internal/serve) uses this pair.
func LoadSessionPrefetcher(r io.Reader) (*Prefetcher, error) { return core.LoadSession(r) }

// NewSNN builds a standalone spiking network (for demos of the §3.6
// behaviour; use DefaultSNNConfig for the Table 4 parameters).
func NewSNN(cfg SNNConfig) (*SNN, error) { return snn.New(cfg) }

// DefaultSNNConfig returns the Table 4 network parameters for an input of
// the given size.
func DefaultSNNConfig(inputSize int) SNNConfig { return snn.DefaultConfig(inputSize) }

// NewThrottle wraps any prefetcher with feedback-directed aggressiveness
// control (Srinath et al.): it earns the full per-access budget only while
// its recent suggestions are accurate — the throttling mechanism the
// paper's Best-Offset baseline ships with disabled (§4.3).
func NewThrottle(inner OnlinePrefetcher) OnlinePrefetcher { return prefetch.NewThrottle(inner) }

// NewDynamicEnsemble combines prefetchers with usefulness-scored priorities
// — the "dynamic ensemble priority policies" the paper leaves as future
// work (§5).
func NewDynamicEnsemble(label string, members ...OnlinePrefetcher) OnlinePrefetcher {
	d := prefetch.NewDynamicEnsemble(members...)
	d.Label = label
	return d
}

// NewEnsemble combines prefetchers with fixed priority (first wins); the
// paper's best design point is the registry's "pf+nl+sisb".
func NewEnsemble(label string, members ...OnlinePrefetcher) OnlinePrefetcher {
	e := prefetch.NewEnsemble(members...)
	e.Label = label
	return e
}

// Workloads returns the names of the paper's 11 benchmark traces (Table 5).
func Workloads() []string { return workload.Names() }

// GenerateTraceSource returns a streaming generator synthesising a
// deterministic trace of n loads for the named benchmark (see DESIGN.md
// for the trace-substitution rationale), yielded one access at a time, so
// the heap footprint is the generator state rather than the trace; use
// CollectTrace when a slice is genuinely needed. For the Table 5
// synthetic specs a negative n streams indefinitely (the live-capture
// stand-in for daemon consumers); the executed graph kernels need a
// concrete length.
func GenerateTraceSource(name string, n int, seed int64) (TraceSource, error) {
	return workload.NewSource(name, n, seed)
}

// NewTraceReader returns a streaming decoder over any trace container —
// the counted PFT2 file format, the unbounded PFT3 pipe format, or the
// text form — sniffed from the first bytes. Decoding is allocation-free
// in steady state and validates records incrementally with the same
// positioned errors as the slice decoders; see docs/streaming.md.
func NewTraceReader(r io.Reader) (TraceSource, error) { return trace.NewAutoReader(r) }

// NewSliceTraceSource adapts an in-memory trace to the streaming surface.
// The slice is not copied; do not mutate it while the source is read.
func NewSliceTraceSource(accs []Access) TraceSource { return trace.NewSliceSource(accs) }

// CollectTrace drains a source into a materialized slice — the bridge
// back for consumers that genuinely need random access.
func CollectTrace(src TraceSource) ([]Access, error) { return trace.Collect(src) }

// HashTraceSource drains a source into a 64-bit FNV-1a content digest and
// record count: two streams carry the same trace iff (hash, n) match. It
// is the recommended way to derive an EvalJob.SourceKey for file-backed
// streaming jobs.
func HashTraceSource(src TraceSource) (hash uint64, n uint64, err error) {
	return trace.HashSource(src)
}

// TraceFile is an open on-disk trace decoded as a stream. It implements
// TraceSource (plus Remaining, for counted containers) and must be closed
// after the last record.
type TraceFile struct {
	f   *os.File
	src TraceSource
}

// OpenTraceFile opens path and returns a streaming decoder over it,
// sniffing the container format like NewTraceReader.
func OpenTraceFile(path string) (*TraceFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	src, err := trace.NewAutoReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &TraceFile{f: f, src: src}, nil
}

// Next implements TraceSource.
func (t *TraceFile) Next(a *Access) error { return t.src.Next(a) }

// Remaining reports the declared records left when the underlying
// container is counted.
func (t *TraceFile) Remaining() (uint64, bool) {
	if s, ok := t.src.(interface{ Remaining() (uint64, bool) }); ok {
		return s.Remaining()
	}
	return 0, false
}

// Close releases the underlying file.
func (t *TraceFile) Close() error { return t.f.Close() }

// DefaultSimConfig returns the Table 3 machine configuration, appropriate
// for full-length (1 M load) traces.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// ScaledSimConfig returns the Table 3 machine with its cache hierarchy
// scaled down 8×, matching the shorter traces the experiment harness runs
// by default (see sim.ScaledConfig for the rationale).
func ScaledSimConfig() SimConfig { return sim.ScaledConfig() }

// Simulate replays one trace per core on the configured machine, each with
// its prefetch file (phase two of the two-phase flow of §4.1), and returns
// one result per core. pfs may be nil, or hold one prefetch file per core
// (individual files may be nil). Several cores have private L1/L2 caches
// and share one LLC and memory controller — the co-scheduled-thread
// interference scenario of §2.3. Replay holds one access of lookahead per
// core, so heap usage is independent of trace length; NewSliceTraceSource
// adapts an in-memory trace. cfg.Warmup is used as given (zero measures
// from the first record); Eval is what defaults it to 10% of the trace.
func Simulate(cfg SimConfig, cores []TraceSource, pfs [][]PrefetchEntry) ([]SimResult, error) {
	eng, release := sim.AcquireEngine(cfg)
	defer release()
	return eng.RunMultiStreamCtx(context.Background(), cores, pfs)
}

// GeneratePrefetchesStream drives an online prefetcher over a streaming
// trace, producing its prefetch file (phase one of the two-phase flow of
// §4.1; NewSliceTraceSource adapts an in-memory trace). Only the prefetch
// file is materialized — it is what the simulator replays — so generation
// over an arbitrarily long trace holds one access at a time plus the file
// itself.
func GeneratePrefetchesStream(ctx context.Context, p OnlinePrefetcher, src TraceSource, budget int) ([]PrefetchEntry, error) {
	return prefetch.GenerateFileStreamCtx(ctx, p, src, budget)
}

// DefaultDeltaLSTMConfig returns the Delta-LSTM evaluation configuration.
func DefaultDeltaLSTMConfig() DeltaLSTMConfig { return lstm.DefaultDeltaLSTMConfig() }

// GenerateDeltaLSTM runs the offline Delta-LSTM baseline over a trace.
func GenerateDeltaLSTM(cfg DeltaLSTMConfig, accs []Access, budget int) ([]PrefetchEntry, error) {
	return lstm.GenerateDeltaLSTM(cfg, accs, budget)
}

// DefaultVoyagerConfig returns the Voyager evaluation configuration.
func DefaultVoyagerConfig() VoyagerConfig { return lstm.DefaultVoyagerConfig() }

// GenerateVoyager runs the offline Voyager baseline over a trace.
func GenerateVoyager(cfg VoyagerConfig, accs []Access, budget int) ([]PrefetchEntry, error) {
	return lstm.GenerateVoyager(cfg, accs, budget)
}

// DefaultHWConfig returns the paper's full hardware configuration.
func DefaultHWConfig() HWConfig { return hwcost.DefaultConfig() }

// HardwareCost estimates silicon area and power for a PATHFINDER hardware
// configuration (§3.5; the default lands at the paper's 0.23 mm² / 0.5 W).
func HardwareCost(cfg HWConfig) (HWCost, error) { return hwcost.Total(cfg) }

// Parallel evaluation engine types.
type (
	// Metrics summarises one prefetcher evaluation (§4.5).
	Metrics = runner.Metrics
	// EvalJob describes one evaluation: a trace (by name, as explicit
	// accesses, or as a streaming Source factory with a SourceKey cache
	// identity) and exactly one prefetch source — an online prefetcher
	// (instance or factory), an offline file generator, or a precomputed
	// file — plus optional baseline, warmup, budget, and machine
	// overrides. Source jobs never materialize the trace: each stage
	// streams a fresh resolution through the bounded replay window. The
	// baseline runs on its own goroutine beside prefetch generation and
	// the timed replay, so a Source factory may be called from two
	// goroutines at once and must be safe for that.
	EvalJob = runner.Job
	// EvalResult is one evaluated job: Metrics plus the trace's
	// no-prefetch IPC and the job's wall-clock / simulated-cycle cost.
	EvalResult = runner.Result
	// Runner is the parallel evaluation engine: it fans EvalJobs across a
	// worker pool and runs each trace's no-prefetch baseline exactly once
	// through a single-flight cache. Results are bit-identical to a
	// serial run regardless of parallelism.
	Runner = runner.Runner
	// RunnerConfig configures a Runner (trace length, seed, machine,
	// parallelism, progress sink).
	RunnerConfig = runner.Config
	// RunnerProgress is one progress event (jobs done, wall clock,
	// simulated cycles) delivered to RunnerConfig.Progress.
	RunnerProgress = runner.Progress
	// RunReport summarises a graceful-degradation run (see
	// Runner.RunWithReport): completed/resumed/retried counts and one
	// JobError per failed cell.
	RunReport = runner.RunReport
	// JobError attributes one evaluation-cell failure: job identity, the
	// attempt count, the cause, and a stack trace when the cause was a
	// panic.
	JobError = runner.JobError
	// RunJournal is an append-only on-disk record of completed evaluation
	// cells, enabling checkpoint/resume across process restarts (see
	// OpenJournal and RunnerConfig.Journal).
	RunJournal = runner.Journal
)

// NewRunner builds a parallel evaluation engine. Zero-value config fields
// take defaults: 50 K-load traces, seed 1, the scaled Table 3 machine,
// GOMAXPROCS workers.
func NewRunner(cfg RunnerConfig) *Runner { return runner.New(cfg) }

// OpenJournal opens (creating if absent) an on-disk journal of completed
// evaluation cells at path. Attach it via RunnerConfig.Journal to
// checkpoint a run and resume it after a crash; see docs/resilience.md.
func OpenJournal(path string) (*RunJournal, error) { return runner.OpenJournal(path) }

// Eval runs the complete two-phase evaluation described by one EvalJob:
// trace acquisition, the no-prefetch baseline (unless job.Baseline is
// precomputed), prefetch-file generation, and the timed replay. The
// baseline runs on a second goroutine beside the other two stages, so a
// job.Source factory may be called from two goroutines at once; Eval
// returns only once both have finished. Warmup defaults to 10% of the
// trace; job.Sim defaults to ScaledSimConfig. Use a Runner to evaluate
// whole grids in parallel.
func Eval(ctx context.Context, job EvalJob) (Metrics, error) {
	res, err := runner.New(runner.Config{Parallelism: 1}).Eval(ctx, job)
	return res.Metrics, err
}
