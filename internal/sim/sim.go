package sim

import (
	"context"

	"pathfinder/internal/trace"
)

// Config is the full machine configuration, defaulting to Table 3 of the
// paper. Latencies are in core cycles.
type Config struct {
	// L1 data cache geometry and latency (48 KB, 64 sets, 12 ways, 5 cyc).
	L1Sets, L1Ways, L1Lat int
	// L2 geometry and latency (512 KB, 1024 sets, 8 ways, 10 cyc).
	L2Sets, L2Ways, L2Lat int
	// LLC geometry and latency (2 MB, 2048 sets, 16 ways, 20 cyc).
	LLCSets, LLCWays, LLCLat int
	// DRAM is the main-memory timing model.
	DRAM DRAMConfig
	// Width is the core retire width in instructions per cycle.
	Width int
	// ROB is the reorder-buffer size in instructions; it bounds how far
	// ahead of retirement a load may issue, and therefore the
	// memory-level parallelism the core can extract.
	ROB int
	// Warmup is the number of leading trace accesses excluded from the
	// reported statistics (the paper warms the hierarchy with 10 M
	// instructions before measuring, §4.4).
	Warmup int
	// PrefetchDropDepth drops a prefetch instead of issuing it when the
	// DRAM queue already holds at least this many outstanding requests,
	// the standard demand-priority policy of memory controllers. Zero
	// defaults to half the DRAM read queue.
	PrefetchDropDepth int
	// LLCPolicy selects the LLC replacement policy (PolicyLRU default, or
	// PolicySRRIP with prefetch-aware distant insertion).
	LLCPolicy Policy
}

// DefaultConfig returns the Table 3 machine with a 4-wide, 256-entry-ROB
// core and a 10%%-of-trace warmup handled by the caller.
func DefaultConfig() Config {
	return Config{
		L1Sets: 64, L1Ways: 12, L1Lat: 5,
		L2Sets: 1024, L2Ways: 8, L2Lat: 10,
		LLCSets: 2048, LLCWays: 16, LLCLat: 20,
		DRAM:  DefaultDRAMConfig(),
		Width: 4,
		ROB:   256,
	}
}

// ScaledConfig returns the Table 3 machine with the cache hierarchy scaled
// down 8× (L1 6 KB, L2 64 KB, LLC 256 KB). The paper simulates 1 M loads
// against a 2 MB LLC; when experiments run shorter traces (the harness
// default is 50–100 K loads), the working sets that thrash the paper's LLC
// would fit in a full-size one and every prefetcher would look useless.
// Scaling the hierarchy with the trace — a standard trace-sampling
// methodology — preserves the miss behaviour the evaluation depends on.
// Use DefaultConfig with -loads 1000000 for full-scale runs.
func ScaledConfig() Config {
	return Config{
		L1Sets: 8, L1Ways: 12, L1Lat: 5,
		L2Sets: 128, L2Ways: 8, L2Lat: 10,
		LLCSets: 256, LLCWays: 16, LLCLat: 20,
		DRAM:  DefaultDRAMConfig(),
		Width: 4,
		ROB:   256,
	}
}

// Result carries the metrics of one simulation (§4.5).
type Result struct {
	// Instructions and Cycles are measured after warmup; IPC is their ratio.
	Instructions uint64
	Cycles       uint64
	IPC          float64

	// LLCLoadAccesses / LLCLoadHits / LLCLoadMisses count post-warmup
	// demand loads reaching the LLC.
	LLCLoadAccesses uint64
	LLCLoadHits     uint64
	LLCLoadMisses   uint64

	// PrefIssued is the number of prefetch-file entries consumed
	// post-warmup (the paper's "issued prefetches", Table 6). PrefFetched
	// is the subset that actually went to DRAM (not already resident or
	// in flight); PrefDropped is the subset discarded because the memory
	// controller was under demand pressure. PrefUseful counts prefetched
	// lines that received a demand hit; PrefLate is the subset that were
	// still in flight when the demand arrived.
	PrefIssued  uint64
	PrefFetched uint64
	PrefDropped uint64
	PrefUseful  uint64
	PrefLate    uint64

	// DRAMReads and DRAMRowHits describe memory-controller behaviour.
	DRAMReads   uint64
	DRAMRowHits uint64
}

// Accuracy returns useful/issued prefetches (§4.5), or 0 with no prefetches.
func (r Result) Accuracy() float64 {
	if r.PrefIssued == 0 {
		return 0
	}
	return float64(r.PrefUseful) / float64(r.PrefIssued)
}

// Coverage returns useful prefetches divided by the baseline (no-prefetch)
// LLC miss count (§4.5).
func (r Result) Coverage(baselineMisses uint64) float64 {
	if baselineMisses == 0 {
		return 0
	}
	return float64(r.PrefUseful) / float64(baselineMisses)
}

// inflightHeap orders in-flight prefetch fills by completion cycle, ties
// broken by issue order (seq) so fills that complete on the same cycle
// install FCFS — a well-defined order the refmodel oracle can reproduce.
// Like completionHeap, the sift operations are typed rather than routed
// through container/heap, keeping the replay hot path allocation-free.
type inflightHeap []inflightFill

type inflightFill struct {
	ready uint64
	block uint64
	seq   uint64
}

// before is the heap's strict total order: completion cycle, then issue
// order. seq is unique, so no two fills compare equal.
func (f inflightFill) before(g inflightFill) bool {
	if f.ready != g.ready {
		return f.ready < g.ready
	}
	return f.seq < g.seq
}

// The sifts are hole-style — shift entries into the hole and place the
// moving element once at the end — rather than swap-style, halving the
// stores per level. The comparison sequence (and so the final layout) is
// identical to the classic swap formulation.
func (h *inflightHeap) push(f inflightFill) {
	s := append(*h, f)
	*h = s
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !f.before(s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = f
}

func (h *inflightHeap) pop() inflightFill {
	s := *h
	min := s[0]
	n := len(s) - 1
	x := s[n]
	s = s[:n]
	*h = s
	if n == 0 {
		return min
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s[r].before(s[child]) {
			child = r
		}
		if !s[child].before(x) {
			break
		}
		s[i] = s[child]
		i = child
	}
	s[i] = x
	return min
}

// retirePoint records when a known instruction id retired, letting the
// dispatch model interpolate the retire time of any nearby instruction.
type retirePoint struct {
	id     uint64
	retire float64
}

// Run replays a load trace together with a prefetch file (entries keyed by
// triggering instruction id, non-decreasing) against the configured machine
// on a pooled Engine (AcquireEngine) and returns the measured metrics. The
// core model is described on Engine.RunMultiStreamCtx.
func Run(cfg Config, accs []trace.Access, pfs []trace.Prefetch) (Result, error) {
	eng, release := AcquireEngine(cfg)
	defer release()
	return eng.RunCtx(context.Background(), accs, pfs)
}
