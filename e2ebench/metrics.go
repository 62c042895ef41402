package main

import "strings"

// endToEnd lists the metrics an untraced run reports on every workload,
// in the order of BENCHMARK.json. What each one measures per workload is
// in README.md.
var endToEnd = []string{
	"setup_s", "wall_s", "p50_ms", "tail_ms",
	"ipc_speedup", "accuracy", "coverage", "peak_heap_mb",
}

// tablePrefetchers are the grid-tables lineup minus NoPF, each with a
// per-access generate cost metric.
var tablePrefetchers = []string{"BO", "SPP", "SISB", "Pythia", "Stride", "VLDP", "SMS", "NextLine"}

// perLayer lists the metrics a traced run reports on every workload; a
// layer the workload does not reach reports 0.
var perLayer = func() []string {
	names := []string{
		"workload.gen_ms",
		"trace.decode_ns_per_rec", "trace.encode_ms", "trace.self_ms",
		"sim.baseline_ms", "sim.replay_ms", "sim.ns_per_access", "sim.self_ms",
		"sim.llc_misses", "sim.pref_issued", "sim.pref_useful", "sim.pref_late",
		"sim.pref_dropped", "sim.dram_row_hits",
		"prefetch.generate_ms", "prefetch.self_ms",
	}
	for _, p := range tablePrefetchers {
		names = append(names, "prefetch."+strings.ToLower(p)+".ns_per_access")
	}
	return append(names,
		"core.advise_query_us_p50", "core.advise_query_us_p99", "core.advise_other_ns_p50",
		"core.queries", "core.query_frac", "core.self_ms",
		"snn.presents", "snn.ticks", "snn.fast_forward_ticks", "snn.spikes",
		"snn.wta_candidates", "snn.stdp_potentiations", "snn.stdp_depressions", "snn.ns_per_tick",
		"runner.baseline_sims", "runner.flight_hit_frac", "runner.self_ms",
		"dist.leases_granted", "dist.results", "dist.self_ms",
		"serve.reply_p50_us", "serve.advise_us_p50", "serve.advise_us_p99",
		"serve.overhead_us_p50", "serve.overhead_us_p99", "serve.self_ms",
		"serve.frames", "serve.events_accepted", "serve.shed",
		"serve.queue_depth_peak", "serve.out_depth_peak", "serve.gen_late_p99_us",
		"go.alloc_mb", "go.gc_cycles",
		"tracing.overhead_ms",
	)
}()

// units maps every metric name to its unit.
var units = func() map[string]string {
	u := map[string]string{
		"setup_s": "s", "wall_s": "s", "p50_ms": "ms", "tail_ms": "ms",
		"ipc_speedup": "x", "accuracy": "frac", "coverage": "frac", "peak_heap_mb": "MB",
	}
	for _, n := range perLayer {
		u[n] = unitFromSuffix(n)
	}
	return u
}()

// unitFromSuffix reads a per-layer metric's unit off its name suffix;
// names without a unit suffix are counts.
func unitFromSuffix(name string) string {
	for _, s := range []struct{ suffix, unit string }{
		{"_ms", "ms"}, {"_us_p50", "us"}, {"_us_p99", "us"}, {"_ns_p50", "ns"},
		{"_us", "us"}, {"ns_per_rec", "ns"}, {"ns_per_access", "ns"}, {"ns_per_tick", "ns"},
		{"_frac", "frac"}, {"_mb", "MB"},
	} {
		if len(name) > len(s.suffix) && name[len(name)-len(s.suffix):] == s.suffix {
			return s.unit
		}
	}
	return "count"
}

// sizes are the input sizes of every workload. fullSizes is what the
// benchmark measures; the self-test runs tinySizes.
type sizes struct {
	snnTraces  []string
	snnLoads   int
	tableLoads int
	// tableTraces nil means the whole Table 5 suite.
	tableTraces []string
	streamLoads int
	// serve-open: sessions, the two fixed rates in events/s, and the
	// share of the measured phase spent at the light rate.
	sessions    int
	lightRate   int
	loadedRate  int
	lightShare  float64
	setupRepeat int
}

var fullSizes = sizes{
	snnTraces:   []string{"cc-5", "bfs-10", "623-xalan-s1", "605-mcf-s1", "471-omnetpp-s1"},
	snnLoads:    10_000,
	tableLoads:  50_000,
	streamLoads: 1_200_000,
	sessions:    32,
	lightRate:   2_000,
	loadedRate:  5_000,
	lightShare:  0.3,
	setupRepeat: 5,
}

var tinySizes = sizes{
	snnTraces:   []string{"cc-5", "bfs-10"},
	snnLoads:    1_500,
	tableLoads:  2_000,
	tableTraces: []string{"cc-5", "450-soplex-s0"},
	streamLoads: 20_000,
	sessions:    4,
	lightRate:   500,
	loadedRate:  2_000,
	lightShare:  0.3,
	setupRepeat: 2,
}
