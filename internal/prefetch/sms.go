package prefetch

import (
	"pathfinder/internal/flat"
	"pathfinder/internal/trace"
)

// SMS is Spatial Memory Streaming (Somogyi et al., ISCA 2006), the spatial
// prefetcher family of §2.1: it learns which blocks of a spatial region are
// touched together, keyed by the (PC, trigger-offset) of the region's first
// access, and replays the whole footprint on the next trigger. Regions are
// pages here, matching the rest of the reproduction.
type SMS struct {
	// active tracks regions currently accumulating footprints
	// (accumulation generation table).
	active *flat.Table[smsGeneration]
	// patterns is the pattern history table: trigger signature ->
	// footprint bitmask.
	patterns *flat.Table[uint64]
	// ActiveCap and PatternCap bound the two tables.
	ActiveCap, PatternCap int
	clock                 uint64

	advBuf []uint64
}

type smsGeneration struct {
	signature uint64
	footprint uint64 // bit per block offset
	lastUse   uint64
}

// NewSMS returns an SMS with 64 active generations and a 4K-entry pattern
// table.
func NewSMS() *SMS {
	return &SMS{
		active:     flat.NewTable[smsGeneration](64),
		patterns:   flat.NewTable[uint64](4096),
		ActiveCap:  64,
		PatternCap: 4096,
	}
}

// Name implements Prefetcher.
func (s *SMS) Name() string { return "SMS" }

func smsSignature(pc uint64, offset int) uint64 {
	return pc<<6 | uint64(offset)
}

// Advise implements Prefetcher. The returned slice is reused across calls
// and valid only until the next Advise.
func (s *SMS) Advise(a trace.Access, budget int) []uint64 {
	s.clock++
	page := a.Page()
	off := a.Offset()

	if gen := s.active.Get(page); gen != nil {
		gen.footprint |= 1 << uint(off)
		gen.lastUse = s.clock
		return nil
	}

	// Trigger access: end the oldest generation if the table is full,
	// then start a new one.
	if s.active.Len() >= s.ActiveCap {
		s.endOldestGeneration()
	}
	sig := smsSignature(a.PC, off)
	gen, _ := s.active.Insert(page)
	*gen = smsGeneration{
		signature: sig,
		footprint: 1 << uint(off),
		lastUse:   s.clock,
	}

	// Replay the learned footprint for this trigger, nearest blocks
	// first.
	pat := s.patterns.Get(sig)
	if pat == nil {
		return nil
	}
	mask := *pat
	out := s.advBuf[:0]
	for dist := 1; dist < trace.BlocksPerPage && len(out) < budget; dist++ {
		for _, t := range [2]int{off + dist, off - dist} {
			if t < 0 || t >= trace.BlocksPerPage || len(out) == budget {
				continue
			}
			if mask&(1<<uint(t)) != 0 {
				out = append(out, trace.BlockAddr(page*trace.BlocksPerPage+uint64(t)))
			}
		}
	}
	s.advBuf = out
	return out
}

// endOldestGeneration commits the LRU active generation's footprint to the
// pattern table.
func (s *SMS) endOldestGeneration() {
	var victim uint64
	var oldest uint64 = ^uint64(0)
	s.active.Range(func(pg uint64, g *smsGeneration) bool {
		if g.lastUse < oldest {
			oldest = g.lastUse
			victim = pg
		}
		return true
	})
	g := *s.active.Get(victim)
	s.active.Delete(victim)
	if s.patterns.Len() >= s.PatternCap {
		// Cheap bound: clear rather than track LRU across 4K entries.
		s.patterns.Reset()
	}
	pat, _ := s.patterns.Insert(g.signature)
	*pat = g.footprint
}
