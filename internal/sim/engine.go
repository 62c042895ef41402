package sim

import (
	"context"
	"fmt"
	"io"

	"pathfinder/internal/trace"
)

// Engine is a reusable simulation arena: one machine (caches, DRAM,
// in-flight bookkeeping, per-core pipelines) whose backing memory survives
// across runs, so each run costs O(trace) work with near-zero setup
// allocations instead of paying the whole hierarchy's allocation cost. The
// package-level Run* functions draw their Engine from a per-configuration
// pool (AcquireEngine), so one-shot callers get the same reuse.
//
// All state is re-initialized at the *start* of each run, never at the
// end — an Engine recovered from a panicked or cancelled run is safe to
// reuse as-is, and a reused Engine is bit-identical to a fresh one (see
// TestEngineReuseDeterministic).
//
// An Engine is single-goroutine: callers that run simulations in parallel
// pool one Engine per worker (internal/runner does this).
type Engine struct {
	cfg   Config
	mem   *sharedMemory
	pipes []*corePipeline
	wins  []*replayWindow

	// Scratch for the single-core entry points, so Run/RunStream on an
	// Engine do not allocate per-call slice headers.
	srcs1 [1]trace.Source
	pfs1  [1][]trace.Prefetch
}

// NewEngine returns an Engine for the given machine configuration. The
// machine is built lazily on the first run, so an invalid configuration
// surfaces as that run's error (or panic), exactly as with the package
// functions.
func NewEngine(cfg Config) *Engine {
	return &Engine{cfg: cfg}
}

// Config returns the machine configuration the Engine was built for.
func (e *Engine) Config() Config { return e.cfg }

// SetWarmup changes the warmup length for subsequent runs. Warmup is the
// one Config field that does not shape the machine, so a pooled Engine can
// serve jobs with different warmups without rebuilding anything.
func (e *Engine) SetWarmup(n int) { e.cfg.Warmup = n }

// Run replays a load trace and prefetch file, as the package Run function,
// reusing the Engine's machine.
func (e *Engine) Run(accs []trace.Access, pfs []trace.Prefetch) (Result, error) {
	return e.RunCtx(context.Background(), accs, pfs)
}

// RunCtx is Run with cancellation.
func (e *Engine) RunCtx(ctx context.Context, accs []trace.Access, pfs []trace.Prefetch) (Result, error) {
	return e.RunStreamCtx(ctx, trace.NewSliceSource(accs), pfs)
}

// RunStreamCtx is the streaming single-core replay, as the package
// RunStreamCtx, reusing the Engine's machine.
func (e *Engine) RunStreamCtx(ctx context.Context, src trace.Source, pfs []trace.Prefetch) (Result, error) {
	e.srcs1[0] = src
	e.pfs1[0] = pfs
	res, err := e.RunMultiStreamCtx(ctx, e.srcs1[:], e.pfs1[:])
	e.srcs1[0], e.pfs1[0] = nil, nil
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// RunMultiStreamCtx is the full multi-core scheduler. Every package-level
// Run variant funnels here through a fresh Engine, so Engine reuse and
// one-shot runs replay identically by construction.
func (e *Engine) RunMultiStreamCtx(ctx context.Context, srcs []trace.Source, pfs [][]trace.Prefetch) ([]Result, error) {
	cfg := e.cfg
	if cfg.Width <= 0 || cfg.ROB <= 0 {
		return nil, fmt.Errorf("sim: invalid core config (width %d, ROB %d)", cfg.Width, cfg.ROB)
	}
	if cfg.L1Ways > maxWays || cfg.L2Ways > maxWays || cfg.LLCWays > maxWays {
		return nil, fmt.Errorf("sim: cache associativity above %d ways (L1 %d, L2 %d, LLC %d)", maxWays, cfg.L1Ways, cfg.L2Ways, cfg.LLCWays)
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("sim: no cores")
	}
	if pfs != nil && len(pfs) != len(srcs) {
		return nil, fmt.Errorf("sim: %d prefetch files for %d cores", len(pfs), len(srcs))
	}
	// Sources with a known length keep the slice path's up-front rejection
	// of a warmup that swallows the whole trace; unbounded sources are
	// checked at end of run instead (corePipeline.finish).
	for i, src := range srcs {
		if s, ok := src.(interface{ Remaining() (uint64, bool) }); ok {
			if n, known := s.Remaining(); known && n > 0 && cfg.Warmup >= 0 && uint64(cfg.Warmup) >= n {
				return nil, fmt.Errorf("sim: warmup %d >= core %d trace length %d", cfg.Warmup, i, n)
			}
		}
	}

	// Acquire the machine: build it on first use, otherwise clear every
	// piece of state from the previous run (including one that panicked).
	if e.mem == nil {
		e.mem = newSharedMemory(cfg)
	} else {
		e.mem.reset()
	}
	mem := e.mem
	for i, src := range srcs {
		var p []trace.Prefetch
		if pfs != nil {
			p = pfs[i]
		}
		if i < len(e.pipes) {
			e.wins[i].rearm(src)
			// Refresh the pipeline's config copy: SetWarmup may have changed
			// it since the pipeline was built.
			e.pipes[i].cfg = cfg
			e.pipes[i].rearm(e.wins[i], p)
		} else {
			w := newReplayWindow(src)
			e.wins = append(e.wins, w)
			e.pipes = append(e.pipes, newCorePipeline(cfg, w, p))
		}
	}
	pipes := e.pipes[:len(srcs)]

	// Advance the core with the smallest local retire time; this keeps
	// the shared-resource access order consistent with wall-clock time.
	steps := 0
	for {
		if steps&4095 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if pfdebugEnabled && steps&1023 == 0 {
			mem.debugCheck()
		}
		steps++
		best := -1
		for i, p := range pipes {
			if p.done() {
				continue
			}
			if best < 0 || p.retire < pipes[best].retire {
				best = i
			}
		}
		if best < 0 {
			break
		}
		if err := pipes[best].step(mem); err != nil {
			return nil, fmt.Errorf("sim: core %d: %w", best, err)
		}
	}

	// Every window is drained; a terminal state other than io.EOF is a
	// decode error in that core's trace stream.
	for i, p := range pipes {
		if err := p.win.srcErr(); err != nil && err != io.EOF {
			return nil, fmt.Errorf("sim: core %d trace: %w", i, err)
		}
	}

	out := make([]Result, len(pipes))
	for i, p := range pipes {
		res, err := p.finish()
		if err != nil {
			return nil, fmt.Errorf("sim: core %d: %w", i, err)
		}
		out[i] = res
		out[i].DRAMReads = mem.dram.Reads
		out[i].DRAMRowHits = mem.dram.RowHits
	}
	if m := simTele.Load(); m != nil {
		// One flush per run: the per-level cache statistics come straight
		// from the caches' own (warmup-gated) counters.
		m.runs.Inc()
		m.cores.Add(uint64(len(pipes)))
		for _, p := range pipes {
			m.demands.Add(uint64(p.consumed))
			m.l1Hits.Add(p.l1.Hits)
			m.l1Misses.Add(p.l1.Misses)
			m.l2Hits.Add(p.l2.Hits)
			m.l2Misses.Add(p.l2.Misses)
		}
		m.llcHits.Add(mem.llc.Hits)
		m.llcMisses.Add(mem.llc.Misses)
		m.llcPrefetchFills.Add(mem.llc.PrefetchFills)
		m.llcEvictions.Add(mem.llc.Evictions)
		m.inflightPeak.SetMax(int64(mem.fillsPeak))
		mem.dram.flushTelemetry(m)
	}
	return out, nil
}
