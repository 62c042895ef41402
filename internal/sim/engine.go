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
// allocations instead of paying the whole hierarchy's allocation cost.
// Engines come from a per-configuration pool (AcquireEngine); Run draws
// its Engine there too, so one-shot callers get the same reuse.
//
// All state is re-initialized at the *start* of each run, never at the
// end — an Engine recovered from a panicked or cancelled run is safe to
// reuse as-is, and a reused Engine is bit-identical to a fresh one (see
// TestEngineReuseDeterministic).
//
// An Engine is single-goroutine: callers that run simulations in parallel
// hold one Engine per worker (internal/runner does this).
type Engine struct {
	cfg   Config
	mem   *sharedMemory
	pipes []*corePipeline
	wins  []*replayWindow

	// Scratch for the single-core entry points, so RunCtx/RunStreamCtx do
	// not allocate per-call slice headers.
	srcs1 [1]trace.Source
	pfs1  [1][]trace.Prefetch
}

// newEngine returns an Engine for the given machine configuration. The
// machine is built lazily on the first run, so an invalid configuration
// surfaces as that run's error (or panic).
func newEngine(cfg Config) *Engine {
	return &Engine{cfg: cfg}
}

// setWarmup changes the warmup length for subsequent runs. Warmup is the
// one Config field that does not shape the machine, so a pooled Engine can
// serve jobs with different warmups without rebuilding anything.
func (e *Engine) setWarmup(n int) { e.cfg.Warmup = n }

// RunCtx replays a load trace and prefetch file on one core, as
// RunMultiStreamCtx over a trace.SliceSource, whose known length keeps the
// up-front rejection of a warmup that swallows the whole trace.
func (e *Engine) RunCtx(ctx context.Context, accs []trace.Access, pfs []trace.Prefetch) (Result, error) {
	return e.RunStreamCtx(ctx, trace.NewSliceSource(accs), pfs)
}

// RunStreamCtx is the streaming single-core replay: RunMultiStreamCtx with
// one core.
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

// RunMultiStreamCtx is the simulator's scheduler; every other entry point
// funnels here. srcs[i] is core i's load trace and pfs[i] its prefetch
// file (entries keyed by triggering instruction id, non-decreasing); pfs
// may be nil, as may any one file, for no prefetching. It returns one
// Result per core.
//
// Each core retires instructions in order at cfg.Width per cycle. A load
// dispatches once the instruction cfg.ROB before it has retired — the
// point at which it can have entered the reorder buffer — so independent
// misses within a ROB window overlap naturally, bounding memory-level
// parallelism by ROB size and load density exactly as an out-of-order core
// does. Prefetches fill the LLC only (the paper prefetches from memory to
// the LLC, §4.1) and contend for DRAM banks and queue slots with demand
// loads.
//
// Cores have private L1/L2 hierarchies and share one LLC and one memory
// controller — the co-scheduled-thread interference scenario §2.3 raises
// as a source of noise for prefetchers. The core with the smallest local
// retire time advances next, so a stalled core naturally falls behind
// while others occupy the shared resources.
//
// Replay holds one access of lookahead per core, so heap usage is bounded
// whatever the trace length. A Source has no length, so a warmup that
// consumes a whole stream is reported at end of run; for sources exposing
// Remaining() (uint64, bool) — trace.SliceSource, counted trace files —
// such a warmup is rejected up front. The loop polls ctx every few
// thousand steps and returns ctx.Err() when cancelled.
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
			// Refresh the pipeline's config copy: setWarmup may have changed
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
