package prefetch

import (
	"pathfinder/internal/flat"
	"pathfinder/internal/trace"
)

// VLDP is the Variable Length Delta Prefetcher (Shevgoor et al., MICRO
// 2015), cited in §2.1 as the complex end of the delta-correlation
// spectrum. Per page it keeps a short delta history; a cascade of delta
// prediction tables — keyed by the last one, two, and three deltas — votes
// on the next delta, with longer-history tables taking precedence (the
// TAGE-like structure the paper mentions). Predictions chain for
// multi-degree prefetching.
type VLDP struct {
	dhb    *flat.Table[vldpPage] // delta history buffer: page -> history
	dhbCap int
	clock  uint64

	advBuf []uint64

	// dpt[k] maps a key of (k+1) recent deltas to the predicted next
	// delta with a 2-bit confidence.
	dpt [3]*flat.Table[vldpPred]
}

type vldpPage struct {
	lastOffset int
	deltas     [3]int // most recent last
	n          int
	lastUse    uint64
}

type vldpPred struct {
	delta int
	conf  int
}

// NewVLDP returns a VLDP with a 128-page history buffer and three
// prediction tables.
func NewVLDP() *VLDP {
	v := &VLDP{dhb: flat.NewTable[vldpPage](128), dhbCap: 128}
	for i := range v.dpt {
		v.dpt[i] = flat.NewTable[vldpPred](1024)
	}
	return v
}

// Name implements Prefetcher.
func (v *VLDP) Name() string { return "VLDP" }

// vldpKey packs the most recent k+1 deltas (deltas[2] is the newest) into
// a table key, tagged with the history length so tables never alias.
func vldpKey(deltas [3]int, k int) uint64 {
	key := uint64(k+1) << 60
	for i := 0; i <= k; i++ {
		key = key*131 + uint64(uint8(int8(deltas[2-k+i])))
	}
	return key
}

// Advise implements Prefetcher. The returned slice is reused across calls
// and valid only until the next Advise.
func (v *VLDP) Advise(a trace.Access, budget int) []uint64 {
	v.clock++
	page := a.Page()
	off := a.Offset()
	p := v.dhb.Get(page)
	if p == nil {
		if v.dhb.Len() >= v.dhbCap {
			v.evictLRU()
		}
		p, _ = v.dhb.Insert(page)
		*p = vldpPage{lastOffset: off, lastUse: v.clock}
		return nil
	}
	p.lastUse = v.clock
	delta := off - p.lastOffset
	p.lastOffset = off
	if delta == 0 {
		return nil
	}

	// Train: every table whose key was available predicts `delta`.
	for k := 0; k < 3 && k < p.n; k++ {
		key := vldpKey(p.deltas, k)
		e, existed := v.dpt[k].Insert(key)
		if !existed {
			*e = vldpPred{delta: delta, conf: 1}
			continue
		}
		if e.delta == delta {
			if e.conf < 3 {
				e.conf++
			}
		} else {
			e.conf--
			if e.conf <= 0 {
				e.delta = delta
				e.conf = 1
			}
		}
	}

	// Shift the new delta into the history.
	p.deltas[0], p.deltas[1], p.deltas[2] = p.deltas[1], p.deltas[2], delta
	if p.n < 3 {
		p.n++
	}

	// Predict by chaining: at each hop, the longest-history table with a
	// confident entry wins.
	out := v.advBuf[:0]
	hist := p.deltas
	n := p.n
	cur := off
	for len(out) < budget {
		pred, ok := v.lookup(hist, n)
		if !ok {
			break
		}
		cur += pred
		if cur < 0 || cur >= trace.BlocksPerPage {
			break
		}
		out = append(out, trace.BlockAddr(page*trace.BlocksPerPage+uint64(cur)))
		hist[0], hist[1], hist[2] = hist[1], hist[2], pred
		if n < 3 {
			n++
		}
	}
	v.advBuf = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// lookup returns the most-confident next delta for a history, preferring
// longer-history tables.
func (v *VLDP) lookup(deltas [3]int, n int) (int, bool) {
	for k := min3(n, 3) - 1; k >= 0; k-- {
		key := vldpKey(deltas, k)
		if e := v.dpt[k].Get(key); e != nil && e.conf >= 2 {
			return e.delta, true
		}
	}
	return 0, false
}

func min3(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (v *VLDP) evictLRU() {
	var victim uint64
	var oldest uint64 = ^uint64(0)
	v.dhb.Range(func(pg uint64, e *vldpPage) bool {
		if e.lastUse < oldest {
			oldest = e.lastUse
			victim = pg
		}
		return true
	})
	v.dhb.Delete(victim)
}
