package refmodel

import (
	"fmt"

	"pathfinder/internal/sim"
	"pathfinder/internal/trace"
)

// This file is the reference replay: the semantics of the simulator's
// multi-core scheduler (sim.Engine.RunMultiStreamCtx) re-stated
// with the obvious data structures. In-flight fills live in a plain slice
// drained by stable min-scan (completion cycle, then issue order — the FCFS
// order sim's heap implements), retire points in a bounded slice scanned
// backwards, and the caches/DRAM are the reference models of this package.
// The differential harness asserts that the simulator and RunMulti produce
// identical sim.Result values — cycles, IPC bits, and every counter.

// retireWindow is the number of recent retire points the dispatch model
// remembers; it matches the optimized engine's ring-buffer size, which is
// part of the dispatch semantics (older instructions fall back to
// width-interpolation from the trace start).
const retireWindow = 512

type refFill struct {
	ready uint64
	block uint64
	seq   uint64
}

type refSharedMemory struct {
	llc      *Cache
	dram     *DRAM
	inflight map[uint64]uint64
	fills    []refFill
	fillSeq  uint64
}

func (s *refSharedMemory) drainFills(now uint64) {
	for {
		// Find the due fill with the smallest (ready, seq).
		best := -1
		for i, f := range s.fills {
			if f.ready > now {
				continue
			}
			if best < 0 || f.ready < s.fills[best].ready ||
				(f.ready == s.fills[best].ready && f.seq < s.fills[best].seq) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		f := s.fills[best]
		s.fills = append(s.fills[:best], s.fills[best+1:]...)
		// The map entry may have been superseded (a demand consumed the
		// in-flight fill); only fill if it still matches.
		if r, ok := s.inflight[f.block]; ok && r == f.ready {
			s.llc.Fill(f.block, true)
			delete(s.inflight, f.block)
		}
	}
}

type refRetirePoint struct {
	id     uint64
	retire float64
}

type refCore struct {
	cfg  sim.Config
	l1   *Cache
	l2   *Cache
	accs []trace.Access
	pfs  []trace.Prefetch

	idx     int
	retire  float64
	points  []refRetirePoint // most recent retireWindow retire points
	chains  map[uint32]float64
	pfIdx   int
	prevID  uint64
	firstID uint64

	measuring  bool
	warmCycles float64
	warmInstr  uint64
	res        sim.Result
}

func newRefCore(cfg sim.Config, accs []trace.Access, pfs []trace.Prefetch) *refCore {
	c := &refCore{
		cfg:       cfg,
		l1:        NewCache(cfg.L1Sets, cfg.L1Ways),
		l2:        NewCache(cfg.L2Sets, cfg.L2Ways),
		accs:      accs,
		pfs:       pfs,
		chains:    make(map[uint32]float64),
		measuring: cfg.Warmup == 0,
	}
	if len(accs) > 0 {
		c.prevID = accs[0].ID
		if c.prevID > 0 {
			c.prevID--
		}
	}
	c.firstID = c.prevID
	return c
}

func (c *refCore) dispatchTime(targetID uint64) float64 {
	for i := len(c.points) - 1; i >= 0; i-- {
		p := c.points[i]
		if p.id <= targetID {
			return p.retire + float64(targetID-p.id)/float64(c.cfg.Width)
		}
	}
	if targetID <= c.firstID {
		return 0
	}
	return float64(targetID-c.firstID) / float64(c.cfg.Width)
}

func (c *refCore) done() bool { return c.idx >= len(c.accs) }

func (c *refCore) step(mem *refSharedMemory) error {
	cfg := c.cfg
	acc := c.accs[c.idx]
	if acc.ID <= c.prevID {
		return fmt.Errorf("refmodel: access %d has non-increasing ID %d (prev %d)", c.idx, acc.ID, c.prevID)
	}
	gap := acc.ID - c.prevID
	c.prevID = acc.ID

	c.retire += float64(gap-1) / float64(cfg.Width)

	var dispatch float64
	if acc.ID > uint64(cfg.ROB) {
		dispatch = c.dispatchTime(acc.ID - uint64(cfg.ROB))
	}
	if acc.Chain != 0 {
		if ready, ok := c.chains[acc.Chain]; ok && ready > dispatch {
			dispatch = ready
		}
	}
	now := uint64(dispatch)
	mem.drainFills(now)

	block := acc.Block()
	var lat uint64
	l1Hit, _ := c.l1.Lookup(block)
	if l1Hit {
		lat = uint64(cfg.L1Lat)
	} else {
		l2Hit, _ := c.l2.Lookup(block)
		if l2Hit {
			lat = uint64(cfg.L1Lat + cfg.L2Lat)
			c.l1.Fill(block, false)
		} else {
			// Mirror of sim: the shared LLC's counters are gated on this
			// core's measurement window.
			hit, pfTouch := mem.llc.LookupGated(block, c.measuring)
			if c.measuring {
				c.res.LLCLoadAccesses++
			}
			if hit {
				lat = uint64(cfg.L1Lat + cfg.L2Lat + cfg.LLCLat)
				if c.measuring {
					c.res.LLCLoadHits++
					if pfTouch {
						c.res.PrefUseful++
					}
				}
			} else if ready, ok := mem.inflight[block]; ok {
				tagLat := uint64(cfg.L1Lat + cfg.L2Lat + cfg.LLCLat)
				if ready > now+tagLat {
					lat = ready - now
				} else {
					lat = tagLat
				}
				delete(mem.inflight, block)
				mem.llc.Fill(block, false)
				if c.measuring {
					c.res.LLCLoadHits++
					c.res.PrefUseful++
					c.res.PrefLate++
				}
			} else {
				done := mem.dram.Access(block, now+uint64(cfg.L1Lat+cfg.L2Lat+cfg.LLCLat))
				lat = done - now
				mem.llc.Fill(block, false)
				if c.measuring {
					c.res.LLCLoadMisses++
				}
			}
			c.l2.Fill(block, false)
			c.l1.Fill(block, false)
		}
	}

	complete := dispatch + float64(lat)
	if acc.Chain != 0 {
		c.chains[acc.Chain] = complete
	}
	c.retire += 1.0 / float64(cfg.Width)
	if complete > c.retire {
		c.retire = complete
	}
	c.points = append(c.points, refRetirePoint{id: acc.ID, retire: c.retire})
	if len(c.points) > retireWindow {
		c.points = c.points[1:]
	}

	dropDepth := cfg.PrefetchDropDepth
	if dropDepth <= 0 {
		dropDepth = cfg.DRAM.ReadQueue / 2
	}
	for c.pfIdx < len(c.pfs) && c.pfs[c.pfIdx].ID <= acc.ID {
		pf := c.pfs[c.pfIdx]
		c.pfIdx++
		if c.measuring {
			c.res.PrefIssued++
		}
		pb := pf.Block()
		if mem.llc.Contains(pb) {
			continue
		}
		if _, ok := mem.inflight[pb]; ok {
			continue
		}
		if mem.dram.QueueDepth(now) >= dropDepth {
			if c.measuring {
				c.res.PrefDropped++
			}
			continue
		}
		done := mem.dram.Access(pb, now+uint64(cfg.L1Lat+cfg.L2Lat+cfg.LLCLat))
		mem.inflight[pb] = done
		mem.fills = append(mem.fills, refFill{ready: done, block: pb, seq: mem.fillSeq})
		mem.fillSeq++
		if c.measuring {
			c.res.PrefFetched++
		}
	}

	c.idx++
	if !c.measuring && c.idx == cfg.Warmup {
		c.measuring = true
		c.warmCycles = c.retire
		c.warmInstr = acc.ID - c.firstID
		c.l1.ResetStats()
		c.l2.ResetStats()
	}
	return nil
}

// finish mirrors corePipeline.finish, including the empty-measured-window
// error for non-empty traces.
func (c *refCore) finish() (sim.Result, error) {
	totalInstr := uint64(0)
	if len(c.accs) > 0 {
		totalInstr = c.accs[len(c.accs)-1].ID - c.firstID
	}
	c.res.Instructions = totalInstr - c.warmInstr
	cycles := c.retire - c.warmCycles
	if cycles < 1 {
		if len(c.accs) > 0 {
			return sim.Result{}, fmt.Errorf("measured window is empty (%.3f cycles for %d instructions after warmup %d); shorten Warmup or lengthen the trace",
				cycles, c.res.Instructions, c.cfg.Warmup)
		}
		cycles = 1
	}
	c.res.Cycles = uint64(cycles)
	c.res.IPC = float64(c.res.Instructions) / cycles
	return c.res, nil
}

// Run replays one core's trace and prefetch file; the reference counterpart
// of sim.Run.
func Run(cfg sim.Config, accs []trace.Access, pfs []trace.Prefetch) (sim.Result, error) {
	res, err := RunMulti(cfg, [][]trace.Access{accs}, [][]trace.Prefetch{pfs})
	if err != nil {
		return sim.Result{}, err
	}
	return res[0], nil
}

// RunMulti is the reference counterpart of the simulator's multi-core
// replay (sim.Engine.RunMultiStreamCtx): the same
// min-retire-time core scheduling over the reference shared memory system.
func RunMulti(cfg sim.Config, cores [][]trace.Access, pfs [][]trace.Prefetch) ([]sim.Result, error) {
	if cfg.Width <= 0 || cfg.ROB <= 0 {
		return nil, fmt.Errorf("refmodel: invalid core config (width %d, ROB %d)", cfg.Width, cfg.ROB)
	}
	if len(cores) == 0 {
		return nil, fmt.Errorf("refmodel: no cores")
	}
	if pfs != nil && len(pfs) != len(cores) {
		return nil, fmt.Errorf("refmodel: %d prefetch files for %d cores", len(pfs), len(cores))
	}
	for i, accs := range cores {
		if cfg.Warmup >= len(accs) && len(accs) > 0 {
			return nil, fmt.Errorf("refmodel: warmup %d >= core %d trace length %d", cfg.Warmup, i, len(accs))
		}
	}

	mem := &refSharedMemory{
		llc:      NewCacheWithPolicy(cfg.LLCSets, cfg.LLCWays, cfg.LLCPolicy),
		dram:     NewDRAM(cfg.DRAM),
		inflight: make(map[uint64]uint64),
	}
	pipes := make([]*refCore, len(cores))
	for i, accs := range cores {
		var p []trace.Prefetch
		if pfs != nil {
			p = pfs[i]
		}
		pipes[i] = newRefCore(cfg, accs, p)
	}

	for {
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
			return nil, fmt.Errorf("refmodel: core %d: %w", best, err)
		}
	}

	out := make([]sim.Result, len(pipes))
	for i, p := range pipes {
		res, err := p.finish()
		if err != nil {
			return nil, fmt.Errorf("refmodel: core %d: %w", i, err)
		}
		out[i] = res
		out[i].DRAMReads = mem.dram.Reads
		out[i].DRAMRowHits = mem.dram.RowHits
	}
	return out, nil
}
