// Package refmodel holds small, deliberately straightforward reference
// implementations of the repository's two hot engines: the spiking neural
// network of internal/snn and the cache/DRAM timing simulator of
// internal/sim.
//
// The optimized engines are refactored aggressively (sparse tick loops,
// fused passes, heaps, scratch reuse); each rewrite claims to be
// bit-identical to the simple semantics it replaced. This package *is*
// those simple semantics, kept alive as executable oracles: every type here
// favours the obvious data structure (per-tick loops, recency lists, linear
// scans) over speed, and the differential harness in diff.go drives the
// optimized and reference engines over seeded random configurations and
// workloads, asserting bit-identical spike trains, weights, adaptive
// thresholds, hit/miss/fill counts and cycle timings.
//
// Nothing outside tests should import this package for production work —
// it is a correctness tool, not an engine. See docs/testing.md for how the
// oracle, the pfdebug invariant assertions, and the fuzz targets fit
// together.
package refmodel

// rng is a copy of internal/snn's xorshift64* generator. The reference
// network must consume the exact RNG stream the optimized network consumes
// (one draw per active pixel per tick under rate coding), so the generator
// is part of the specification, not an implementation detail.
type rng struct{ state uint64 }

func newRNG(seed int64) *rng {
	s := uint64(seed)
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return &rng{state: s}
}

func (r *rng) next() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// float64 returns a uniform draw in [0, 1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}
