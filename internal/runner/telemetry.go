package runner

import (
	"sync/atomic"

	"pathfinder/internal/telemetry"
)

// runnerMetrics is the evaluation engine's bound telemetry handles. The
// engine's own bookkeeping (RunReport, Progress) stays authoritative for a
// single Run call; these counters aggregate across every Run/Eval of the
// process, which is what a live /metrics scrape or the JSONL sampler sees
// mid-sweep.
type runnerMetrics struct {
	jobs         *telemetry.Counter   // cells reaching a terminal state
	jobFailures  *telemetry.Counter   // cells failing permanently
	jobWallNanos *telemetry.Histogram // per-cell wall latency (ns)
	retries      *telemetry.Counter   // evaluation attempts beyond the first
	resumes      *telemetry.Counter   // cells satisfied from the journal
	flightHits   *telemetry.Counter   // single-flight cache joins (shared builds)
	flightMisses *telemetry.Counter   // single-flight builds started
	baselineSims *telemetry.Counter   // no-prefetch baseline simulations executed
}

var runnerTele atomic.Pointer[runnerMetrics]

// EnableTelemetry binds the package's metrics to r (pass nil to unbind).
func EnableTelemetry(r *telemetry.Registry) {
	if r == nil {
		runnerTele.Store(nil)
		return
	}
	runnerTele.Store(&runnerMetrics{
		jobs:         r.Counter("runner.jobs"),
		jobFailures:  r.Counter("runner.job_failures"),
		jobWallNanos: r.Histogram("runner.job_wall_ns"),
		retries:      r.Counter("runner.retries"),
		resumes:      r.Counter("runner.journal_resumes"),
		flightHits:   r.Counter("runner.flight_hits"),
		flightMisses: r.Counter("runner.flight_misses"),
		baselineSims: r.Counter("runner.baseline_sims"),
	})
}

// observeTerminal records one cell's terminal state; evalCell calls it for
// every cell that reaches one, whichever entry point evaluates the cell.
func observeTerminal(wallNanos int64, retries int, failed, resumed bool) {
	m := runnerTele.Load()
	if m == nil {
		return
	}
	m.jobs.Inc()
	m.retries.Add(uint64(retries))
	switch {
	case failed:
		m.jobFailures.Inc()
	case resumed:
		m.resumes.Inc()
	default:
		m.jobWallNanos.Observe(uint64(wallNanos))
	}
}
