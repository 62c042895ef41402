package sim

import (
	"fmt"
	"math"

	"pathfinder/internal/flat"
	"pathfinder/internal/trace"
)

// sharedMemory is the part of the machine that cores contend for: the
// last-level cache, the memory controller, and the set of in-flight
// prefetch fills (a prefetch issued for one core can satisfy another
// core's demand, as in a real shared LLC).
type sharedMemory struct {
	llc      *Cache
	dram     *DRAM
	inflight *flat.Table[uint64] // block -> fill-ready cycle
	fills    inflightHeap
	fillSeq  uint64 // issue counter for FCFS tie-breaking of fills

	// fillsPeak is the in-flight fill heap's high-water mark, flushed to
	// telemetry at end of run (a plain int so the hot loop stays atomic-free).
	fillsPeak int
}

func newSharedMemory(cfg Config) *sharedMemory {
	return &sharedMemory{
		llc:      NewCache(cfg.LLCSets, cfg.LLCWays),
		dram:     NewDRAM(cfg.DRAM),
		inflight: flat.NewTable[uint64](cfg.DRAM.ReadQueue),
		fills:    make(inflightHeap, 0, cfg.DRAM.ReadQueue+1),
	}
}

// reset returns the shared memory to its freshly constructed state, keeping
// every backing allocation.
func (s *sharedMemory) reset() {
	s.llc.Reset()
	s.dram.Reset()
	s.inflight.Reset()
	s.fills = s.fills[:0]
	s.fillSeq = 0
	s.fillsPeak = 0
}

func (s *sharedMemory) drainFills(now uint64) {
	for len(s.fills) > 0 && s.fills[0].ready <= now {
		f := s.fills.pop()
		// The map entry may have been superseded (a demand consumed the
		// in-flight fill); only fill if it still matches.
		if r := s.inflight.Get(f.block); r != nil && *r == f.ready {
			s.llc.Fill(f.block, true)
			s.inflight.Delete(f.block)
		}
	}
}

// ringSize is the capacity of each core's retire-point ring. It must stay a
// power of two: dispatchTime indexes the ring with a mask.
const ringSize = 512

// corePipeline is one core's private state: L1/L2, the retire/dispatch
// model, its dependence chains, and its prefetch file. It pulls accesses
// through a one-record replayWindow over a trace.Source, so a core's heap
// footprint is independent of its trace length, and the file through a
// PrefetchFeed one chunk at a time.
type corePipeline struct {
	cfg  Config
	l1   *Cache
	l2   *Cache
	win  *replayWindow
	feed PrefetchFeed
	// pfs is the chunk being issued, from pfIdx on; the file is complete
	// through instruction id through once pfs is.
	pfs     []trace.Prefetch
	pfIdx   int
	through uint64

	consumed int // accesses replayed so far
	retire   float64
	ring     [ringSize]retirePoint
	ringLen  int
	ringPos  int
	chains   map[uint32]float64
	prevID   uint64
	firstID  uint64

	measuring  bool
	warmCycles float64
	warmInstr  uint64
	res        Result
}

func newCorePipeline(cfg Config, win *replayWindow, feed PrefetchFeed) *corePipeline {
	c := &corePipeline{
		cfg:    cfg,
		l1:     NewCache(cfg.L1Sets, cfg.L1Ways),
		l2:     NewCache(cfg.L2Sets, cfg.L2Ways),
		chains: make(map[uint32]float64),
	}
	c.rearm(win, feed)
	return c
}

// rearm points the pipeline at a new trace window and prefetch file (nil
// for none) and clears all replay state, reusing the caches' and chain
// map's backing. After rearm the pipeline behaves identically to a newly
// constructed one.
func (c *corePipeline) rearm(win *replayWindow, feed PrefetchFeed) {
	c.l1.Reset()
	c.l2.Reset()
	c.win = win
	c.feed = feed
	c.pfs, c.pfIdx, c.through = nil, 0, 0
	if feed == nil {
		c.through = math.MaxUint64
	}
	c.consumed = 0
	c.retire = 0
	c.ringLen = 0
	c.ringPos = 0
	clear(c.chains)
	c.measuring = c.cfg.Warmup == 0
	c.warmCycles = 0
	c.warmInstr = 0
	c.res = Result{}
	c.prevID = 0
	if first, ok := win.peek(); ok {
		c.prevID = first.ID
		if c.prevID > 0 {
			c.prevID--
		}
	}
	c.firstID = c.prevID
}

// dispatchTime returns the retire time of instruction targetID using the
// recorded retire points, interpolating between them at the retire width.
func (c *corePipeline) dispatchTime(targetID uint64) float64 {
	// ringPos counts total steps, so ringPos-1-i >= ringLen-1-i >= 0 for
	// every probed i; the power-of-two mask replaces a signed modulo.
	for i := 0; i < c.ringLen; i++ {
		p := c.ring[(c.ringPos-1-i)&(ringSize-1)]
		if p.id <= targetID {
			return p.retire + float64(targetID-p.id)/float64(c.cfg.Width)
		}
	}
	if targetID <= c.firstID {
		return 0
	}
	return float64(targetID-c.firstID) / float64(c.cfg.Width)
}

// done reports whether the core has consumed its whole trace.
func (c *corePipeline) done() bool { return c.win.drained() }

// step processes the core's next access against the shared memory system.
func (c *corePipeline) step(mem *sharedMemory) error {
	cfg := &c.cfg
	acc, ok := c.win.peek()
	if !ok {
		return fmt.Errorf("sim: step on a drained trace")
	}
	if acc.ID <= c.prevID {
		return fmt.Errorf("sim: access %d has non-increasing ID %d (prev %d)", c.consumed, acc.ID, c.prevID)
	}
	gap := acc.ID - c.prevID // instructions retired including this load
	c.prevID = acc.ID

	// Non-load instructions between the previous load and this one retire
	// at full width.
	c.retire += float64(gap-1) / float64(cfg.Width)

	// The load dispatches once its ROB slot exists and, for a member of a
	// serial dependence chain, once the chain's previous load completed.
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
	if hit, _ := c.l1.Lookup(block); hit {
		lat = uint64(cfg.L1Lat)
	} else if hit, _ := c.l2.Lookup(block); hit {
		lat = uint64(cfg.L1Lat + cfg.L2Lat)
		c.l1.Fill(block, false)
	} else {
		// The shared LLC's own counters are gated on this core's
		// measurement window (private L1/L2 instead reset at the boundary;
		// the LLC cannot, because cores cross their boundaries at
		// different times and would wipe each other's counts).
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
		} else if ready := mem.inflight.Get(block); ready != nil {
			// Late prefetch: the line is on its way; the demand waits for
			// the fill instead of issuing its own DRAM read.
			tagLat := uint64(cfg.L1Lat + cfg.L2Lat + cfg.LLCLat)
			if *ready > now+tagLat {
				lat = *ready - now
			} else {
				lat = tagLat
			}
			mem.inflight.Delete(block)
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

	complete := dispatch + float64(lat)
	if acc.Chain != 0 {
		c.chains[acc.Chain] = complete
	}
	c.retire += 1.0 / float64(cfg.Width)
	if complete > c.retire {
		c.retire = complete
	}
	c.ring[c.ringPos&(ringSize-1)] = retirePoint{id: acc.ID, retire: c.retire}
	c.ringPos++
	if c.ringLen < ringSize {
		c.ringLen++
	}

	// Issue this access's prefetches after the demand is handled: every
	// file entry up to its id, in file order, pulling chunks until the file
	// is complete through it. Prefetches are dropped under memory pressure:
	// demand requests have priority at the controller.
	dropDepth := cfg.PrefetchDropDepth
	if dropDepth <= 0 {
		dropDepth = cfg.DRAM.ReadQueue / 2
	}
issue:
	for {
		for ; c.pfIdx < len(c.pfs); c.pfIdx++ {
			pf := c.pfs[c.pfIdx]
			if pf.ID > acc.ID {
				break issue
			}
			if c.measuring {
				c.res.PrefIssued++
			}
			pb := pf.Block()
			if mem.llc.Contains(pb) {
				continue
			}
			if mem.inflight.Get(pb) != nil {
				continue
			}
			if mem.dram.QueueDepth(now) >= dropDepth {
				if c.measuring {
					c.res.PrefDropped++
				}
				continue
			}
			done := mem.dram.Access(pb, now+uint64(cfg.L1Lat+cfg.L2Lat+cfg.LLCLat))
			r, _ := mem.inflight.Insert(pb)
			*r = done
			mem.fills.push(inflightFill{ready: done, block: pb, seq: mem.fillSeq})
			if len(mem.fills) > mem.fillsPeak {
				mem.fillsPeak = len(mem.fills)
			}
			mem.fillSeq++
			if c.measuring {
				c.res.PrefFetched++
			}
		}
		if c.through >= acc.ID {
			break
		}
		chunk, through, err := c.feed.Next()
		if err != nil {
			return fmt.Errorf("prefetch file at access %d: %w", c.consumed, err)
		}
		c.pfs, c.pfIdx, c.through = chunk, 0, through
	}

	c.win.pop()
	c.consumed++
	if !c.measuring && c.consumed == cfg.Warmup {
		c.measuring = true
		c.warmCycles = c.retire
		c.warmInstr = acc.ID - c.firstID
		c.l1.ResetStats()
		c.l2.ResetStats()
		// A live marker (not an end-of-run flush) so a dashboard watching
		// /metrics can see cores leave warmup mid-run.
		if m := simTele.Load(); m != nil {
			m.warmupBoundaries.Inc()
		}
	}
	return nil
}

// finish computes the core's final metrics. A measured window shorter than
// one cycle on a non-empty trace is a degenerate configuration (warmup ate
// essentially the whole trace); it is reported as an error rather than
// silently clamped, which used to fabricate IPC values off by orders of
// magnitude. An idle core (empty trace) keeps its zero Result.
func (c *corePipeline) finish() (Result, error) {
	// An unbounded source cannot be length-checked against Warmup up
	// front the way slices are; detect a warmup that swallowed the whole
	// stream here instead. (Unreachable on the slice path, which rejects
	// warmup >= length before replay begins.)
	if c.cfg.Warmup > 0 && c.consumed > 0 && !c.measuring {
		return Result{}, fmt.Errorf("warmup %d >= trace length %d; shorten Warmup or lengthen the trace",
			c.cfg.Warmup, c.consumed)
	}
	totalInstr := uint64(0)
	if c.consumed > 0 {
		// prevID is the ID of the last access replayed.
		totalInstr = c.prevID - c.firstID
	}
	c.res.Instructions = totalInstr - c.warmInstr
	cycles := c.retire - c.warmCycles
	if cycles < 1 {
		if c.consumed > 0 {
			return Result{}, fmt.Errorf("measured window is empty (%.3f cycles for %d instructions after warmup %d); shorten Warmup or lengthen the trace",
				cycles, c.res.Instructions, c.cfg.Warmup)
		}
		cycles = 1 // idle core: zero instructions over a defined window
	}
	c.res.Cycles = uint64(cycles)
	c.res.IPC = float64(c.res.Instructions) / cycles
	return c.res, nil
}
