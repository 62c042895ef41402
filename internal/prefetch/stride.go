package prefetch

import (
	"pathfinder/internal/flat"
	"pathfinder/internal/trace"
)

// Stride is the classic per-PC (instruction-pointer) stride prefetcher of
// Baer & Chen (§2.1's strided-prefetcher family): a reference-prediction
// table tracks each load PC's last address and last stride, and prefetches
// ahead once the same stride repeats. It complements NextLine (which is
// PC-blind) and Best-Offset (which learns one global offset).
type Stride struct {
	table *flat.LRU[strideEntry] // pc -> entry, in recency order
	cap   int

	advBuf []uint64

	// MinConfidence is how many consecutive identical strides are needed
	// before prefetching (classic value: 2).
	MinConfidence int
}

type strideEntry struct {
	lastBlock uint64
	stride    int64
	conf      int
}

// NewStride returns a stride prefetcher with a 256-entry table.
func NewStride() *Stride {
	return &Stride{
		table:         flat.NewLRU[strideEntry](256),
		cap:           256,
		MinConfidence: 2,
	}
}

// Name implements Prefetcher.
func (s *Stride) Name() string { return "Stride" }

// Advise implements Prefetcher. The returned slice is reused across calls
// and valid only until the next Advise.
func (s *Stride) Advise(a trace.Access, budget int) []uint64 {
	block := a.Block()
	e := s.table.Get(a.PC)
	if e == nil {
		if s.table.Len() >= s.cap {
			victim, _ := s.table.Oldest()
			s.table.Delete(victim)
		}
		e, _ = s.table.Insert(a.PC)
		*e = strideEntry{lastBlock: block}
		return nil
	}
	stride := int64(block) - int64(e.lastBlock)
	e.lastBlock = block
	if stride == 0 {
		return nil
	}
	if stride == e.stride {
		if e.conf < 4 {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 1
	}
	if e.conf < s.MinConfidence {
		return nil
	}
	out := s.advBuf[:0]
	for i := 1; i <= budget; i++ {
		t := int64(block) + int64(i)*stride
		if t <= 0 {
			break
		}
		out = append(out, trace.BlockAddr(uint64(t)))
	}
	s.advBuf = out
	return out
}
