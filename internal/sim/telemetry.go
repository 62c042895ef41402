package sim

import (
	"sync/atomic"

	"pathfinder/internal/telemetry"
)

// simMetrics is the package's bound telemetry handles. The replay loop
// itself stays free of atomics: per-level cache statistics are read out of
// the caches' own counters once per run, the inflight-fill heap depth is
// tracked as a plain high-water mark, and only the rare events (a DRAM
// access, a warmup boundary) touch a handle directly — one atomic pointer
// load and branch each when telemetry is off.
type simMetrics struct {
	runs    *telemetry.Counter // simulations completed
	cores   *telemetry.Counter // core pipelines simulated
	demands *telemetry.Counter // demand loads replayed (all cores)

	l1Hits, l1Misses   *telemetry.Counter // private L1 demand outcomes
	l2Hits, l2Misses   *telemetry.Counter // private L2 demand outcomes
	llcHits, llcMisses *telemetry.Counter // shared LLC demand outcomes (measured window)
	llcPrefetchFills   *telemetry.Counter // prefetch fills installed in the LLC
	llcEvictions       *telemetry.Counter // LLC lines displaced

	dramBankConflicts *telemetry.Counter   // accesses that waited on a busy bank
	dramQueueStalls   *telemetry.Counter   // accesses that waited on a full read queue
	dramQueueDepth    *telemetry.Histogram // read-queue occupancy seen by each access

	inflightPeak     *telemetry.Gauge   // high-water mark of the in-flight fill heap
	warmupBoundaries *telemetry.Counter // cores that crossed their warmup boundary
}

var simTele atomic.Pointer[simMetrics]

// EnableTelemetry binds the package's metrics to r (pass nil to unbind).
func EnableTelemetry(r *telemetry.Registry) {
	if r == nil {
		simTele.Store(nil)
		return
	}
	simTele.Store(&simMetrics{
		runs:              r.Counter("sim.runs"),
		cores:             r.Counter("sim.cores"),
		demands:           r.Counter("sim.demand_loads"),
		l1Hits:            r.Counter("sim.l1.hits"),
		l1Misses:          r.Counter("sim.l1.misses"),
		l2Hits:            r.Counter("sim.l2.hits"),
		l2Misses:          r.Counter("sim.l2.misses"),
		llcHits:           r.Counter("sim.llc.hits"),
		llcMisses:         r.Counter("sim.llc.misses"),
		llcPrefetchFills:  r.Counter("sim.llc.prefetch_fills"),
		llcEvictions:      r.Counter("sim.llc.evictions"),
		dramBankConflicts: r.Counter("sim.dram.bank_conflicts"),
		dramQueueStalls:   r.Counter("sim.dram.queue_stalls"),
		dramQueueDepth:    r.Histogram("sim.dram.queue_depth"),
		inflightPeak:      r.Gauge("sim.inflight_fills_peak"),
		warmupBoundaries:  r.Counter("sim.warmup_boundaries"),
	})
}
