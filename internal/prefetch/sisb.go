package prefetch

import (
	"pathfinder/internal/flat"
	"pathfinder/internal/trace"
)

// SISB is the idealized version of the Irregular Stream Buffer (Jain & Lin,
// MICRO 2013) provided by the ML Prefetching Competition and used as the
// temporal baseline in §4.3. The ISB linearises irregular per-PC access
// streams into a structural address space so that temporal successors can
// be prefetched; the *idealized* variant assumes unbounded off-chip
// metadata, which here is a per-PC successor table recording the last
// block each block was followed by. On an access it replays the learned
// successor chain.
type SISB struct {
	// succ maps pc -> (block -> next block observed in that PC's stream).
	// The two-level shape keeps the unbounded-metadata semantics exact
	// (no 128-bit key is squeezed into 64 bits) while staying flat: the
	// inner tables are Table values stored inline in the outer one.
	succ *flat.Table[flat.Table[uint64]]
	// last maps pc -> the previous block touched by that PC.
	last *flat.Table[uint64]

	advBuf []uint64
}

// NewSISB returns an idealized ISB with unbounded metadata.
func NewSISB() *SISB {
	return &SISB{
		succ: flat.NewTable[flat.Table[uint64]](256),
		last: flat.NewTable[uint64](256),
	}
}

// Name implements Prefetcher.
func (s *SISB) Name() string { return "SISB" }

// Advise implements Prefetcher. The returned slice is reused across calls
// and valid only until the next Advise.
func (s *SISB) Advise(a trace.Access, budget int) []uint64 {
	block := a.Block()
	if prevp := s.last.Get(a.PC); prevp != nil && *prevp != block {
		prev := *prevp
		inner, _ := s.succ.Insert(a.PC)
		v, _ := inner.Insert(prev)
		*v = block
	}
	lastp, _ := s.last.Insert(a.PC)
	*lastp = block

	inner := s.succ.Get(a.PC)
	if inner == nil {
		return nil
	}
	out := s.advBuf[:0]
	cur := block
	for len(out) < budget {
		next := inner.Get(cur)
		if next == nil || *next == block {
			break
		}
		out = append(out, trace.BlockAddr(*next))
		cur = *next
	}
	s.advBuf = out
	if len(out) == 0 {
		return nil
	}
	return out
}
