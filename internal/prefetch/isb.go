package prefetch

import (
	"pathfinder/internal/flat"
	"pathfinder/internal/trace"
)

// ISB is the realistic (bounded-metadata) Irregular Stream Buffer of Jain
// & Lin (MICRO 2013), complementing the competition's idealized SISB
// (§4.3). The ISB linearises each PC's irregular access stream into a
// *structural* address space: temporally adjacent physical blocks receive
// consecutive structural addresses, so irregular streams become sequential
// streams that can be prefetched by walking forward in structural space.
// Two bounded, LRU-managed mappings implement it: physical → structural
// (PS) and structural → physical (SP). The idealized SISB corresponds to
// unbounded mappings.
type ISB struct {
	ps *flat.LRU[uint64]   // physical block -> structural address, in recency order
	sp *flat.Table[uint64] // structural address -> physical block

	last *flat.Table[uint64] // pc -> previous physical block

	// cursor is each PC stream's next free structural address; chunks
	// counts allocated structural chunks.
	cursor *flat.Table[uint64]
	chunks uint64

	// Cap bounds the PS/SP mappings (on-chip metadata).
	Cap int
	// StreamGranularity is the structural chunk size per stream (the ISB
	// uses 256-entry structural pages).
	StreamGranularity uint64

	advBuf []uint64
}

// NewISB returns an ISB with 8K mapping entries (a realistic on-chip
// metadata budget).
func NewISB() *ISB {
	return &ISB{
		ps:                flat.NewLRU[uint64](8192),
		sp:                flat.NewTable[uint64](8192),
		last:              flat.NewTable[uint64](256),
		cursor:            flat.NewTable[uint64](256),
		Cap:               8192,
		StreamGranularity: 256,
	}
}

// Name implements Prefetcher.
func (b *ISB) Name() string { return "ISB" }

// Advise implements Prefetcher. The returned slice is reused across calls
// and valid only until the next Advise.
func (b *ISB) Advise(a trace.Access, budget int) []uint64 {
	block := a.Block()

	// Training: give this block the structural address after its temporal
	// predecessor in the same PC stream. Linearisation is sticky: blocks
	// that already have a structural home keep it (re-linearising on
	// every revisit would tear down the stream a loop just built); stale
	// mappings leave through LRU eviction instead. Only a mapping's
	// write and the access to its own block refresh its recency, so the
	// lookups here peek.
	if prevp := b.last.Get(a.PC); prevp != nil && *prevp != block {
		prev := *prevp
		var prevStr, curStr uint64
		hasPrev, hasCur := false, false
		if s := b.ps.Peek(prev); s != nil {
			prevStr, hasPrev = *s, true
		}
		if s := b.ps.Peek(block); s != nil {
			curStr, hasCur = *s, true
		}
		switch {
		case hasPrev && !hasCur && (prevStr+1)%b.StreamGranularity != 0:
			if b.sp.Get(prevStr+1) == nil {
				b.assign(block, prevStr+1)
			}
		case !hasPrev && hasCur && curStr%b.StreamGranularity != 0:
			// Splice prev in just before the already-placed block.
			if b.sp.Get(curStr-1) == nil {
				b.assign(prev, curStr-1)
			}
		case !hasPrev && !hasCur:
			// Fresh pair: lay both down at the stream's cursor.
			s1 := b.alloc(a.PC)
			s2 := b.alloc(a.PC)
			b.assign(prev, s1)
			b.assign(block, s2)
		}
	}
	lastp, _ := b.last.Insert(a.PC)
	*lastp = block

	// Prediction: walk forward in structural space from this block, whose
	// mapping the access refreshes.
	s := b.ps.Get(block)
	if s == nil {
		return nil
	}
	str := *s
	out := b.advBuf[:0]
	for i := uint64(1); len(out) < budget; i++ {
		phys := b.sp.Get(str + i)
		if phys == nil {
			break
		}
		out = append(out, trace.BlockAddr(*phys))
	}
	b.advBuf = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// alloc hands out the PC stream's next structural address, reserving a
// fresh chunk when the current one is exhausted (or absent).
func (b *ISB) alloc(pc uint64) uint64 {
	cur, existed := b.cursor.Insert(pc)
	if !existed || *cur%b.StreamGranularity == 0 {
		*cur = b.chunks * b.StreamGranularity
		b.chunks++
	}
	c := *cur
	*cur = c + 1
	return c
}

// assign records the physical<->structural pair, displacing stale mappings.
func (b *ISB) assign(phys, str uint64) {
	if old := b.ps.Peek(phys); old != nil {
		b.sp.Delete(*old)
	}
	if oldPhys := b.sp.Get(str); oldPhys != nil {
		b.ps.Delete(*oldPhys)
	}
	if b.ps.Len() >= b.Cap {
		b.evict()
	}
	s, _ := b.ps.Insert(phys)
	*s = str
	sp, _ := b.sp.Insert(str)
	*sp = phys
}

// evict removes the least-recently-used mapping pair.
func (b *ISB) evict() {
	victim, str := b.ps.Oldest()
	if str == nil {
		return
	}
	b.sp.Delete(*str)
	b.ps.Delete(victim)
}
