package refmodel

import (
	"bytes"
	"context"
	"fmt"
	"math"

	"pathfinder/internal/sim"
	"pathfinder/internal/snn"
	"pathfinder/internal/trace"
)

// This file is the differential harness proper: drive the optimized engine
// and the reference model through an identical operation sequence and fail
// on the first divergence, reporting where and what. The Diff* entry points
// are shared by the table-driven seeded-random tests in diff_test.go and
// the fuzz targets in fuzz_test.go.

// SNNPresent is one presentation in an SNN differential scenario.
type SNNPresent struct {
	// Pixels is the input intensity vector (length cfg.InputSize).
	Pixels []float64
	// Learn enables STDP for this presentation.
	Learn bool
	// OneTick presents through the §3.4 1-tick approximation instead of
	// the full interval.
	OneTick bool
}

// DiffSNN builds an optimized snn.Network and a reference SNN from cfg and
// replays the presentation sequence through both, requiring bit-identical
// results (spike counts, winner, first-fire tick) and bit-identical
// observable state (weights, adaptive thresholds, membrane potentials)
// after every presentation. It returns nil if the engines stay identical.
func DiffSNN(cfg snn.Config, presents []SNNPresent) error {
	opt, err := snn.New(cfg)
	refErrCheck, err2 := NewSNN(cfg)
	if (err == nil) != (err2 == nil) {
		return fmt.Errorf("constructor divergence: snn.New err=%v, refmodel.NewSNN err=%v", err, err2)
	}
	if err != nil {
		return nil // both reject the config: agreement
	}
	ref := refErrCheck

	if err := diffSNNState(opt, ref, "after construction"); err != nil {
		return err
	}
	for k, p := range presents {
		var ro, rr snn.Result
		var eo, er error
		if p.OneTick {
			ro, eo = opt.PresentOneTick(p.Pixels, p.Learn)
			rr, er = ref.PresentOneTick(p.Pixels, p.Learn)
		} else {
			ro, eo = opt.Present(p.Pixels, p.Learn)
			rr, er = ref.Present(p.Pixels, p.Learn)
		}
		where := fmt.Sprintf("present %d (learn=%v oneTick=%v)", k, p.Learn, p.OneTick)
		if (eo == nil) != (er == nil) {
			return fmt.Errorf("%s: error divergence: optimized %v, reference %v", where, eo, er)
		}
		if eo != nil {
			continue
		}
		if ro.Winner != rr.Winner {
			return fmt.Errorf("%s: winner %d, reference %d", where, ro.Winner, rr.Winner)
		}
		if ro.FirstFireTick != rr.FirstFireTick {
			return fmt.Errorf("%s: first fire tick %d, reference %d", where, ro.FirstFireTick, rr.FirstFireTick)
		}
		if len(ro.Spikes) != len(rr.Spikes) {
			return fmt.Errorf("%s: %d spike counts, reference %d", where, len(ro.Spikes), len(rr.Spikes))
		}
		for j := range ro.Spikes {
			if ro.Spikes[j] != rr.Spikes[j] {
				return fmt.Errorf("%s: neuron %d spiked %d times, reference %d", where, j, ro.Spikes[j], rr.Spikes[j])
			}
		}
		if err := diffSNNState(opt, ref, where); err != nil {
			return err
		}
	}
	return nil
}

// diffSNNState requires bit-identical weights, thetas and excitatory
// potentials between the two networks.
func diffSNNState(opt *snn.Network, ref *SNN, where string) error {
	cfg := opt.Config()
	for j := 0; j < cfg.Neurons; j++ {
		if o, r := opt.Theta(j), ref.Theta(j); o != r {
			return fmt.Errorf("%s: theta[%d] = %v, reference %v (diff %g)", where, j, o, r, o-r)
		}
	}
	for i := 0; i < cfg.InputSize; i++ {
		for j := 0; j < cfg.Neurons; j++ {
			if o, r := opt.Weight(i, j), ref.Weight(i, j); o != r {
				return fmt.Errorf("%s: w[%d][%d] = %v, reference %v (diff %g)", where, i, j, o, r, o-r)
			}
		}
	}
	vo, vr := opt.Potentials(), ref.Potentials()
	for j := range vo {
		if vo[j] != vr[j] && !(math.IsNaN(vo[j]) && math.IsNaN(vr[j])) {
			return fmt.Errorf("%s: vE[%d] = %v, reference %v (diff %g)", where, j, vo[j], vr[j], vo[j]-vr[j])
		}
	}
	return nil
}

// CacheOpKind selects a cache operation in a differential scenario.
type CacheOpKind uint8

const (
	// CacheLookup is a demand lookup.
	CacheLookup CacheOpKind = iota
	// CacheFillDemand fills a block as a demand fill.
	CacheFillDemand
	// CacheFillPrefetch fills a block as a prefetch fill.
	CacheFillPrefetch
	// CacheContains is a residency probe.
	CacheContains
	// CacheResetStats clears the hit/miss counters.
	CacheResetStats
	// CacheReset invalidates the whole cache.
	CacheReset

	numCacheOpKinds
)

// CacheOp is one operation of a cache differential scenario.
type CacheOp struct {
	Kind  CacheOpKind
	Block uint64
}

// DiffCache replays ops against a sim.Cache and a reference Cache with the
// same geometry, requiring identical results (hit flags, prefetch
// first-touch flags, evicted blocks) and identical counters after every
// operation.
func DiffCache(sets, ways int, ops []CacheOp) error {
	opt := sim.NewCache(sets, ways)
	ref := NewCache(sets, ways)
	for k, op := range ops {
		where := fmt.Sprintf("op %d (%d block %d)", k, op.Kind, op.Block)
		switch op.Kind {
		case CacheLookup:
			h1, p1 := opt.Lookup(op.Block)
			h2, p2 := ref.Lookup(op.Block)
			if h1 != h2 || p1 != p2 {
				return fmt.Errorf("%s: lookup (%v,%v), reference (%v,%v)", where, h1, p1, h2, p2)
			}
		case CacheFillDemand, CacheFillPrefetch:
			pf := op.Kind == CacheFillPrefetch
			e1, h1 := opt.Fill(op.Block, pf)
			e2, h2 := ref.Fill(op.Block, pf)
			if h1 != h2 || (h1 && e1 != e2) {
				return fmt.Errorf("%s: fill evicted (%d,%v), reference (%d,%v)", where, e1, h1, e2, h2)
			}
		case CacheContains:
			if c1, c2 := opt.Contains(op.Block), ref.Contains(op.Block); c1 != c2 {
				return fmt.Errorf("%s: contains %v, reference %v", where, c1, c2)
			}
		case CacheResetStats:
			opt.ResetStats()
			ref.ResetStats()
		case CacheReset:
			opt.Reset()
			ref.Reset()
		}
		if opt.CacheStats != ref.CacheStats {
			return fmt.Errorf("%s: stats %+v, reference %+v",
				where, opt.CacheStats, ref.CacheStats)
		}
	}
	return nil
}

// DRAMOp is one request of a DRAM differential scenario.
type DRAMOp struct {
	Block uint64
	Now   uint64
}

// DiffDRAM replays a request stream against a sim.DRAM and a reference DRAM
// with the same configuration, requiring identical completion cycles, queue
// depths and counters after every access.
func DiffDRAM(cfg sim.DRAMConfig, ops []DRAMOp) error {
	opt := sim.NewDRAM(cfg)
	ref := NewDRAM(cfg)
	for k, op := range ops {
		d1 := opt.Access(op.Block, op.Now)
		d2 := ref.Access(op.Block, op.Now)
		if d1 != d2 {
			return fmt.Errorf("op %d (block %d now %d): completion %d, reference %d", k, op.Block, op.Now, d1, d2)
		}
		if q1, q2 := opt.QueueDepth(op.Now), ref.QueueDepth(op.Now); q1 != q2 {
			return fmt.Errorf("op %d: queue depth %d, reference %d", k, q1, q2)
		}
		if opt.Reads != ref.Reads || opt.RowHits != ref.RowHits {
			return fmt.Errorf("op %d: reads/rowhits %d/%d, reference %d/%d",
				k, opt.Reads, opt.RowHits, ref.Reads, ref.RowHits)
		}
	}
	return nil
}

// DiffRun replays the same multi-core workload through the simulator, one
// trace.SliceSource per core, and the reference RunMulti, requiring every
// field of every per-core Result — cycle counts, the IPC bits, and all
// cache/prefetch/DRAM counters — to be identical.
func DiffRun(cfg sim.Config, cores [][]trace.Access, pfs [][]trace.Prefetch) error {
	srcs := make([]trace.Source, len(cores))
	for i, accs := range cores {
		srcs[i] = trace.NewSliceSource(accs)
	}
	return diffReplay(cfg, srcs, cores, pfs)
}

// DiffRunStream is DiffRun over the streaming replay pipeline end to end:
// each core's trace is encoded to the unbounded binary container, decoded
// back through the streaming trace.Reader, and replayed by the simulator,
// with the reference model still fed the slices. Any divergence anywhere
// in encode → stream-decode → windowed replay — a record mangled by the
// codec, a window-boundary artifact in the scheduler — shows up as a
// Result mismatch.
func DiffRunStream(cfg sim.Config, cores [][]trace.Access, pfs [][]trace.Prefetch) error {
	srcs := make([]trace.Source, len(cores))
	for i, accs := range cores {
		var buf bytes.Buffer
		if err := trace.Encode(&buf, trace.NewSliceSource(accs)); err != nil {
			return fmt.Errorf("core %d: encoding trace stream: %w", i, err)
		}
		rd, err := trace.NewReader(&buf)
		if err != nil {
			return fmt.Errorf("core %d: opening trace stream: %w", i, err)
		}
		srcs[i] = rd
	}
	return diffReplay(cfg, srcs, cores, pfs)
}

// diffReplay replays srcs on a pooled simulator engine and cores, which
// carry the same records, on the reference model, and compares the two.
func diffReplay(cfg sim.Config, srcs []trace.Source, cores [][]trace.Access, pfs [][]trace.Prefetch) error {
	eng, release := sim.AcquireEngine(cfg)
	defer release()
	r1, e1 := eng.RunMultiStreamCtx(context.Background(), srcs, pfs)
	r2, e2 := RunMulti(cfg, cores, pfs)
	if (e1 == nil) != (e2 == nil) {
		return fmt.Errorf("error divergence: sim %v, refmodel %v", e1, e2)
	}
	if e1 != nil {
		return nil
	}
	if len(r1) != len(r2) {
		return fmt.Errorf("%d results, reference %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			return fmt.Errorf("core %d: result %+v, reference %+v", i, r1[i], r2[i])
		}
	}
	return nil
}
