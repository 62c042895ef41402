package prefetch

import (
	"pathfinder/internal/flat"
	"pathfinder/internal/trace"
)

// NextPage addresses the limitation the paper leaves as future work in
// §3.4: "Predicting the first access to a page that has not been touched in
// a while (a cold page access)". Per load PC it learns the stride between
// consecutively-entered pages and the offset of each page's first touch;
// once the page stride is stable it prefetches the predicted first block of
// the next page — bridging exactly the gap PATHFINDER's within-page model
// cannot cover. It is designed to be ensembled with PATHFINDER.
type NextPage struct {
	table *flat.Table[nextPageEntry]
	cap   int
	clock uint64

	advBuf []uint64

	// MinConfidence is how many consecutive identical page strides are
	// required before prefetching.
	MinConfidence int
	// Lookahead is how many predicted pages ahead to prefetch into.
	Lookahead int
}

type nextPageEntry struct {
	lastPage   uint64
	pageStride int64
	conf       int
	// firstOffset is the page offset this PC's page entries start at.
	firstOffset int
	lastUse     uint64
}

// NewNextPage returns a cold-page first-access predictor.
func NewNextPage() *NextPage {
	return &NextPage{
		table:         flat.NewTable[nextPageEntry](256),
		cap:           256,
		MinConfidence: 2,
		Lookahead:     1,
	}
}

// Name implements Prefetcher.
func (n *NextPage) Name() string { return "NextPage" }

// Advise implements Prefetcher. Only first-touches of a new page (per PC)
// produce learning or predictions; within-page accesses are ignored,
// leaving them to within-page prefetchers. The returned slice is reused
// across calls and valid only until the next Advise.
func (n *NextPage) Advise(a trace.Access, budget int) []uint64 {
	n.clock++
	page := a.Page()
	e := n.table.Get(a.PC)
	if e == nil {
		if n.table.Len() >= n.cap {
			n.evictLRU()
		}
		e, _ = n.table.Insert(a.PC)
		*e = nextPageEntry{lastPage: page, firstOffset: a.Offset(), lastUse: n.clock}
		return nil
	}
	e.lastUse = n.clock
	if page == e.lastPage {
		return nil // within-page access: not our department
	}
	stride := int64(page) - int64(e.lastPage)
	e.lastPage = page
	if stride == e.pageStride {
		if e.conf < 4 {
			e.conf++
		}
	} else {
		e.pageStride = stride
		e.conf = 1
	}
	e.firstOffset = a.Offset()
	if e.conf < n.MinConfidence {
		return nil
	}
	out := n.advBuf[:0]
	for i := 1; i <= n.Lookahead && len(out) < budget; i++ {
		p := int64(page) + int64(i)*stride
		if p <= 0 {
			break
		}
		block := uint64(p)*trace.BlocksPerPage + uint64(e.firstOffset)
		out = append(out, trace.BlockAddr(block))
	}
	n.advBuf = out
	return out
}

func (n *NextPage) evictLRU() {
	var victim uint64
	var oldest uint64 = ^uint64(0)
	n.table.Range(func(pc uint64, e *nextPageEntry) bool {
		if e.lastUse < oldest {
			oldest = e.lastUse
			victim = pc
		}
		return true
	})
	n.table.Delete(victim)
}
