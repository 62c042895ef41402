package main

import (
	"pathfinder"
	"pathfinder/internal/telemetry"
)

// telemetryOn switches the repo's telemetry on across every layer with a
// fresh registry; counters restart from zero.
func telemetryOn() *telemetry.Registry { return pathfinder.EnableTelemetry() }

func telemetryOff() { pathfinder.DisableTelemetry() }

// snnCounters are the snn.* telemetry counters reported as-is.
var snnCounters = []string{
	"snn.presents", "snn.ticks", "snn.fast_forward_ticks", "snn.spikes",
	"snn.wta_candidates", "snn.stdp_potentiations", "snn.stdp_depressions",
}

// reportSNN copies the snn.* counters of snap into o and returns the tick
// count.
func reportSNN(o *outcome, snap *telemetry.Snapshot) uint64 {
	for _, n := range snnCounters {
		o.set(n, float64(snap.Counters[n]))
	}
	return snap.Counters["snn.ticks"]
}

// zeroMissing sets every per-layer metric the workload does not reach to
// 0, so a traced run always reports the full catalogue.
func zeroMissing(o *outcome) {
	for _, n := range perLayer {
		if _, ok := o.metrics[n]; !ok {
			o.set(n, 0)
		}
	}
}
