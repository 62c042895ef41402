package prefetch

import (
	"sync/atomic"

	"pathfinder/internal/telemetry"
)

// prefetchMetrics is the package's bound telemetry handles. GenerateChunksCtx
// accumulates plain locals over the whole trace and flushes once, so the
// per-access cost is an integer add with telemetry on or off.
type prefetchMetrics struct {
	generations *telemetry.Counter   // GenerateChunksCtx calls completed
	advises     *telemetry.Counter   // Advise calls made
	issued      *telemetry.Counter   // prefetch entries emitted (post-budget)
	truncated   *telemetry.Counter   // advice slices cut down to the budget
	degree      *telemetry.Histogram // per-access prefetch degree
}

var prefetchTele atomic.Pointer[prefetchMetrics]

// EnableTelemetry binds the package's metrics to r (pass nil to unbind).
func EnableTelemetry(r *telemetry.Registry) {
	if r == nil {
		prefetchTele.Store(nil)
		return
	}
	prefetchTele.Store(&prefetchMetrics{
		generations: r.Counter("prefetch.generations"),
		advises:     r.Counter("prefetch.advises"),
		issued:      r.Counter("prefetch.issued"),
		truncated:   r.Counter("prefetch.budget_truncations"),
		degree:      r.Histogram("prefetch.degree"),
	})
}
