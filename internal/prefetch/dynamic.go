package prefetch

import (
	"pathfinder/internal/flat"
	"pathfinder/internal/trace"
)

// DynamicEnsemble implements the "dynamic ensemble priority policies" the
// paper names as future work (§5): instead of a fixed member order, it
// scores each member by the recent usefulness of its suggestions — a
// suggestion is credited when its block is demanded within a sliding
// window — and gives the current best scorer first claim on the prefetch
// budget. This addresses the failure mode §5 observes for the fixed-priority
// ensemble, which "can sometimes behave very similar to PATHFINDER, which
// in some benchmarks is worse than SISB-only".
type DynamicEnsemble struct {
	// Members are the candidate prefetchers; all observe every access.
	Members []Prefetcher
	// Label overrides the derived name.
	Label string

	// scores hold exponentially-decayed usefulness credit per member.
	scores []float64
	// pending maps a suggested block to the head of its suggestion chain
	// in the nodes arena; nodes are recycled through a free list.
	pending *flat.Table[int32]
	nodes   []dynPendingNode
	free    int32 // free-list head, -1 when empty
	n       uint64
	rotate  int

	sugg   [][]uint64 // scratch: per-member suggestions for one access
	order  []int      // scratch: member priority order
	advBuf []uint64
}

type dynPendingNode struct {
	member int
	at     uint64
	next   int32 // next node for the same block, -1 = end
}

// dynWindow is the sliding evaluation window in accesses: a suggestion is
// credited if its block is demanded within it.
const dynWindow = 256

// NewDynamicEnsemble builds a usefulness-scored ensemble.
func NewDynamicEnsemble(members ...Prefetcher) *DynamicEnsemble {
	return &DynamicEnsemble{
		Members: members,
		scores:  make([]float64, len(members)),
		pending: flat.NewTable[int32](1024),
		free:    -1,
		sugg:    make([][]uint64, len(members)),
		order:   make([]int, len(members)),
	}
}

// Name implements Prefetcher.
func (d *DynamicEnsemble) Name() string {
	if d.Label != "" {
		return d.Label
	}
	name := "Dyn["
	for i, m := range d.Members {
		if i > 0 {
			name += "+"
		}
		name += m.Name()
	}
	return name + "]"
}

// Scores returns a copy of the current member scores (for tests and
// experiments).
func (d *DynamicEnsemble) Scores() []float64 {
	out := make([]float64, len(d.scores))
	copy(out, d.scores)
	return out
}

func (d *DynamicEnsemble) allocNode(member int, at uint64, next int32) int32 {
	if idx := d.free; idx >= 0 {
		d.free = d.nodes[idx].next
		d.nodes[idx] = dynPendingNode{member: member, at: at, next: next}
		return idx
	}
	d.nodes = append(d.nodes, dynPendingNode{member: member, at: at, next: next})
	return int32(len(d.nodes) - 1)
}

func (d *DynamicEnsemble) freeNode(idx int32) {
	d.nodes[idx].next = d.free
	d.free = idx
}

// Advise implements Prefetcher. The returned slice is reused across calls
// and valid only until the next Advise.
func (d *DynamicEnsemble) Advise(a trace.Access, budget int) []uint64 {
	d.n++

	// Credit members whose outstanding suggestion covered this demand.
	block := a.Block()
	if head := d.pending.Get(block); head != nil {
		for idx := *head; idx >= 0; {
			node := &d.nodes[idx]
			if d.n-node.at <= dynWindow {
				d.scores[node.member]++
			}
			next := node.next
			d.freeNode(idx)
			idx = next
		}
		d.pending.Delete(block)
	}
	// Slow exponential decay keeps scores adaptive across phases.
	if d.n%64 == 0 {
		for i := range d.scores {
			d.scores[i] *= 0.94
		}
		d.gc()
	}

	// Collect every member's suggestions (all keep learning).
	sugg := d.sugg
	for i, m := range d.Members {
		sugg[i] = m.Advise(a, budget)
	}

	order := d.priorityOrder()
	out := d.advBuf[:0]
	for _, i := range order {
	suggest:
		for _, addr := range sugg[i] {
			b := addr / trace.BlockBytes
			// Track usefulness for every member's suggestions, issued or
			// not, so losing members can still earn their way up.
			var next int32 = -1
			head, existed := d.pending.Insert(b)
			if existed {
				next = *head
			}
			*head = d.allocNode(i, d.n, next)
			if len(out) >= budget {
				continue
			}
			blockAddr := trace.BlockAddr(b)
			for _, have := range out {
				if have == blockAddr {
					continue suggest
				}
			}
			out = append(out, blockAddr)
		}
	}
	d.advBuf = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// priorityOrder returns member indexes sorted by descending score. On the
// first 64 of every 1,024 accesses (1/16 of them) the order is rotated, to
// keep gathering evidence for out-of-favour members. The returned slice is
// scratch, valid until the next call.
func (d *DynamicEnsemble) priorityOrder() []int {
	order := d.order
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for k := i; k > 0 && d.scores[order[k]] > d.scores[order[k-1]]; k-- {
			order[k], order[k-1] = order[k-1], order[k]
		}
	}
	if d.n%1024 < 64 && len(order) > 1 {
		d.rotate = (d.rotate + 1) % len(order)
		order[0], order[d.rotate] = order[d.rotate], order[0]
	}
	return order
}

// gc drops stale pending suggestions so the table stays bounded.
func (d *DynamicEnsemble) gc() {
	d.pending.DeleteIf(func(_ uint64, head *int32) bool {
		idx := *head
		for idx >= 0 && d.n-d.nodes[idx].at > dynWindow {
			next := d.nodes[idx].next
			d.freeNode(idx)
			idx = next
		}
		if idx < 0 {
			return true
		}
		*head = idx
		for cur := idx; cur >= 0; {
			next := d.nodes[cur].next
			if next >= 0 && d.n-d.nodes[next].at > dynWindow {
				d.nodes[cur].next = d.nodes[next].next
				d.freeNode(next)
				continue
			}
			cur = next
		}
		return false
	})
}
