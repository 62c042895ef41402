package flat

// List is an index-linked recency list: the replacement order behind every
// bounded LRU table. Nodes are small integers starting at 1, so callers
// keep each node's payload in a plain slice indexed by node; the links
// live in one slice beside it, and the newest and the oldest node are both
// found in O(1) — the constant-time victim choice of a hardware LRU.
//
// Node 0 is a sentinel closing the list into a ring: its next link is the
// newest node and its prev link the oldest, so no operation special-cases
// an end of the list, and 0 doubles as "no node". Released nodes are
// reused before the storage grows, so a table that evicts one entry per
// insert stops growing once full. Storage grows on demand; the zero value
// is an empty list.
type List struct {
	links []link // links[0] is the sentinel
	free  int32  // first released node, chained through next; 0 if none
	n     int
}

// link holds a node's neighbours: prev is the next-newer node, next the
// next-older one.
type link struct{ prev, next int32 }

// Len reports the number of nodes on the list.
func (l *List) Len() int { return l.n }

// Oldest returns the least recently used node, or 0 if the list is empty.
func (l *List) Oldest() int32 {
	if l.n == 0 {
		return 0
	}
	return l.links[0].prev
}

// Newer returns the node used just after i, or 0 if i is the newest. It
// walks the list from Oldest in recency order.
func (l *List) Newer(i int32) int32 { return l.links[i].prev }

// PushFront takes a free node — a released one if any, else a new one
// numbered one past every node handed out so far — makes it the newest,
// and returns it.
func (l *List) PushFront() int32 {
	if len(l.links) == 0 {
		l.links = append(l.links, link{})
	}
	i := l.free
	if i != 0 {
		l.free = l.links[i].next
	} else {
		i = int32(len(l.links))
		l.links = append(l.links, link{})
	}
	l.n++
	l.linkFront(i)
	return i
}

// Touch makes node i the newest. The common hit on the newest node costs
// one comparison.
func (l *List) Touch(i int32) {
	if l.links[0].next != i {
		l.unlink(i)
		l.linkFront(i)
	}
}

// Remove takes node i off the list and releases it for reuse.
func (l *List) Remove(i int32) {
	l.unlink(i)
	l.links[i].next = l.free
	l.free = i
	l.n--
}

func (l *List) unlink(i int32) {
	p, n := l.links[i].prev, l.links[i].next
	l.links[p].next = n
	l.links[n].prev = p
}

func (l *List) linkFront(i int32) {
	h := l.links[0].next
	l.links[i] = link{prev: 0, next: h}
	l.links[h].prev = i
	l.links[0].next = i
}

// LRU is a Table whose entries also sit on a List, for the bounded tables
// that replace their least recently used entry. Values live in a slab
// indexed by list node, and the index Table maps each key to its node, so
// eviction never scans:
//
//	if t.Len() >= capacity {
//		victim, _ := t.Oldest()
//		t.Delete(victim)
//	}
//	v, _ := t.Insert(key)
//
// Get and Insert refresh an entry's recency; Peek does not. The capacity
// is the caller's: LRU never evicts on its own, and its storage grows on
// demand, so a caller may change its bound at any time. A pointer returned
// by Get, Peek, Insert or Oldest is valid until the next Insert (which may
// grow the slab); Delete moves no other entry. The zero value is an empty
// LRU; NewLRU pre-sizes one.
type LRU[V any] struct {
	index Table[int32] // key -> node
	nodes []lruNode[V] // nodes[i] holds node i's entry; nodes[0] is unused
	order List
}

type lruNode[V any] struct {
	key uint64
	val V
}

// NewLRU returns an LRU pre-sized to hold capacity entries without
// growing.
func NewLRU[V any](capacity int) *LRU[V] {
	return &LRU[V]{
		index: *NewTable[int32](capacity),
		nodes: make([]lruNode[V], 1, capacity+1),
		order: List{links: make([]link, 1, capacity+1)},
	}
}

// Len reports the number of live entries.
func (t *LRU[V]) Len() int { return t.order.n }

// Get returns a pointer to key's value and makes the entry the newest, or
// returns nil.
func (t *LRU[V]) Get(key uint64) *V {
	i := t.index.Get(key)
	if i == nil {
		return nil
	}
	t.order.Touch(*i)
	return &t.nodes[*i].val
}

// Peek returns a pointer to key's value without changing its recency, or
// nil.
func (t *LRU[V]) Peek(key uint64) *V {
	i := t.index.Get(key)
	if i == nil {
		return nil
	}
	return &t.nodes[*i].val
}

// Insert returns a pointer to key's value, creating a zero-valued entry if
// absent; existed reports which. Either way the entry becomes the newest.
func (t *LRU[V]) Insert(key uint64) (v *V, existed bool) {
	i, existed := t.index.Insert(key)
	if existed {
		t.order.Touch(*i)
		return &t.nodes[*i].val, true
	}
	*i = t.order.PushFront()
	for int(*i) >= len(t.nodes) {
		t.nodes = append(t.nodes, lruNode[V]{})
	}
	n := &t.nodes[*i] // zero: fresh, or cleared by Delete
	n.key = key
	return &n.val, false
}

// Delete removes key, reporting whether it was present. The entry's slot
// is zeroed, so a deleted value that holds pointers keeps nothing alive.
func (t *LRU[V]) Delete(key uint64) bool {
	i := t.index.Get(key)
	if i == nil {
		return false
	}
	t.nodes[*i] = lruNode[V]{}
	t.order.Remove(*i)
	t.index.Delete(key)
	return true
}

// Range calls fn for every entry, oldest first, until fn returns false. fn
// may mutate the value through the pointer but must not Get, Insert or
// Delete.
func (t *LRU[V]) Range(fn func(key uint64, v *V) bool) {
	for i := t.order.Oldest(); i != 0; i = t.order.Newer(i) {
		if !fn(t.nodes[i].key, &t.nodes[i].val) {
			return
		}
	}
}

// Oldest returns the least recently used entry's key and value, or a nil
// value if the LRU is empty. It does not change the entry's recency.
func (t *LRU[V]) Oldest() (key uint64, v *V) {
	i := t.order.Oldest()
	if i == 0 {
		return 0, nil
	}
	return t.nodes[i].key, &t.nodes[i].val
}
