package snn

import (
	"sync/atomic"

	"pathfinder/internal/telemetry"
)

// snnMetrics is the package's bound telemetry handles. The hot tick loop
// accumulates plain local integers and flushes them here once per
// presentation, so the per-tick cost of telemetry is a handful of integer
// adds whether it is on or off; the atomics are touched only at interval
// boundaries. Counters cannot perturb dynamics: no floating-point
// operation, RNG draw, or allocation depends on them.
type snnMetrics struct {
	presents         *telemetry.Counter // full-interval presentations
	oneTickPresents  *telemetry.Counter // §3.4 1-tick presentations
	ticks            *telemetry.Counter // ticks actually simulated
	spikes           *telemetry.Counter // excitatory spikes emitted
	wtaCandidates    *telemetry.Counter // above-threshold WTA candidates scanned
	stdpDepressions  *telemetry.Counter // STDP depression weight updates
	stdpPotentiation *telemetry.Counter // STDP potentiation weight updates
}

// snnTele holds the current handles; nil when telemetry is off, making
// every flush site a single pointer load and branch.
var snnTele atomic.Pointer[snnMetrics]

// EnableTelemetry binds the package's metrics to r (pass nil to unbind).
// Names are stable and documented in docs/observability.md.
func EnableTelemetry(r *telemetry.Registry) {
	if r == nil {
		snnTele.Store(nil)
		return
	}
	snnTele.Store(&snnMetrics{
		presents:         r.Counter("snn.presents"),
		oneTickPresents:  r.Counter("snn.presents_one_tick"),
		ticks:            r.Counter("snn.ticks"),
		spikes:           r.Counter("snn.spikes"),
		wtaCandidates:    r.Counter("snn.wta_candidates"),
		stdpDepressions:  r.Counter("snn.stdp_depressions"),
		stdpPotentiation: r.Counter("snn.stdp_potentiations"),
	})
}
