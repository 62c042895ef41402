package prefetch

import (
	"pathfinder/internal/flat"
	"pathfinder/internal/trace"
)

// SPP is the Signature Path Prefetcher (Kim et al., MICRO 2016), the
// history-based delta baseline of §4.3. Per page it compresses the recent
// delta history into a signature; a pattern table maps signatures to delta
// candidates with confidence counters. On each access SPP walks the
// signature path speculatively, multiplying confidences, and issues
// prefetches only while the accumulated path confidence stays above a
// threshold — the adaptive selectivity that gives it the highest accuracy
// but lowest coverage in Figure 4/Table 6.
type SPP struct {
	sig *flat.Table[sppPage] // page -> tracking entry
	// pattern is indexed directly by the 12-bit signature — the table is
	// exactly the 4096-entry SRAM structure of the paper, and a zero entry
	// (total == 0) behaves identically to an absent one.
	pattern []sppEntry
	sigCap  int

	advBuf []uint64

	// ConfidenceThreshold stops the lookahead walk: prefetches issue only
	// while the multiplied path confidence stays above it. The high
	// default gives SPP the paper's profile — the most selective
	// prefetcher, with the highest accuracy and the lowest coverage
	// (Figure 4b, Table 6).
	ConfidenceThreshold float64
	// MaxLookahead bounds the speculative path walk.
	MaxLookahead int

	clock uint64
}

type sppPage struct {
	lastOffset int
	signature  uint16
	lastUse    uint64
}

type sppEntry struct {
	deltas [4]int
	counts [4]uint8
	total  uint8
}

// NewSPP returns an SPP with the standard configuration.
func NewSPP() *SPP {
	return &SPP{
		sig:                 flat.NewTable[sppPage](4096),
		pattern:             make([]sppEntry, 1<<12),
		sigCap:              4096,
		ConfidenceThreshold: 0.5,
		MaxLookahead:        8,
	}
}

// Name implements Prefetcher.
func (s *SPP) Name() string { return "SPP" }

// sppSignature folds a delta into a 12-bit signature, as in the paper:
// sig' = (sig << 3) XOR delta.
func sppSignature(sig uint16, delta int) uint16 {
	return ((sig << 3) ^ uint16(delta&0x3f)) & 0xfff
}

func (e *sppEntry) update(delta int) {
	for i, d := range e.deltas {
		if e.counts[i] > 0 && d == delta {
			if e.counts[i] < 255 {
				e.counts[i]++
			}
			if e.total < 255 {
				e.total++
			}
			return
		}
	}
	// Replace the weakest slot.
	weakest := 0
	for i := range e.counts {
		if e.counts[i] < e.counts[weakest] {
			weakest = i
		}
	}
	e.deltas[weakest] = delta
	e.counts[weakest] = 1
	if e.total < 255 {
		e.total++
	}
}

// bestDelta returns the most confident delta and its confidence.
func (e *sppEntry) bestDelta() (int, float64) {
	best := -1
	for i := range e.counts {
		if e.counts[i] > 0 && (best < 0 || e.counts[i] > e.counts[best]) {
			best = i
		}
	}
	if best < 0 || e.total == 0 {
		return 0, 0
	}
	return e.deltas[best], float64(e.counts[best]) / float64(e.total)
}

// Advise implements Prefetcher. The returned slice is reused across calls
// and valid only until the next Advise.
func (s *SPP) Advise(a trace.Access, budget int) []uint64 {
	s.clock++
	page := a.Page()
	off := a.Offset()

	st := s.sig.Get(page)
	if st == nil {
		if s.sig.Len() >= s.sigCap {
			s.evictOldest()
		}
		st, _ = s.sig.Insert(page)
		*st = sppPage{lastOffset: off, lastUse: s.clock}
		return nil
	}
	st.lastUse = s.clock
	delta := off - st.lastOffset
	if delta != 0 {
		// Learn: the previous signature led to this delta.
		s.pattern[st.signature].update(delta)
		st.signature = sppSignature(st.signature, delta)
		st.lastOffset = off
	}

	// Lookahead: walk the signature path while confidence holds.
	out := s.advBuf[:0]
	conf := 1.0
	sig := st.signature
	curOff := off
	for hop := 0; hop < s.MaxLookahead && len(out) < budget; hop++ {
		e := &s.pattern[sig]
		if e.total == 0 {
			break
		}
		d, c := e.bestDelta()
		conf *= c
		if conf < s.ConfidenceThreshold {
			break
		}
		curOff += d
		if curOff < 0 || curOff >= trace.BlocksPerPage {
			break
		}
		out = append(out, trace.BlockAddr(page*trace.BlocksPerPage+uint64(curOff)))
		sig = sppSignature(sig, d)
	}
	s.advBuf = out
	if len(out) == 0 {
		return nil
	}
	return out
}

func (s *SPP) evictOldest() {
	var oldestPage uint64
	var oldest uint64 = ^uint64(0)
	s.sig.Range(func(p uint64, st *sppPage) bool {
		if st.lastUse < oldest {
			oldest = st.lastUse
			oldestPage = p
		}
		return true
	})
	s.sig.Delete(oldestPage)
}
