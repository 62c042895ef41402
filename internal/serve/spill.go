package serve

import (
	"bytes"
	"sync"

	"pathfinder/internal/core"
)

// spillEntry is one evicted session's snapshot: the serialized prefetcher
// plus the protocol watermarks (duplicate detection and go-back-N wedge),
// so a restored session rejects exactly the ids the evicted one would
// have.
type spillEntry struct {
	id         uint64
	blob       []byte
	lastID     uint64
	shedID     uint64
	prev, next *spillEntry
}

// spillStore is a bounded LRU ring of evicted-session snapshots, shared
// across the session table's shards. When it is full, admitting a new
// snapshot drops the least recently spilled one — the same session losing
// state it would have lost without the store, just later. Lock order:
// shard.mu, then spillStore.mu (never the reverse).
type spillStore struct {
	mu         sync.Mutex
	m          map[uint64]*spillEntry
	head, tail *spillEntry // head = most recently spilled
	cap        int
	dropped    int // snapshots pushed out by capacity (stats/tests)
}

func newSpillStore(cap int) *spillStore {
	return &spillStore{m: make(map[uint64]*spillEntry, cap), cap: cap}
}

// put admits a snapshot, replacing any previous snapshot for the same
// session and evicting the oldest entry when past capacity.
func (st *spillStore) put(e *spillEntry) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if old, ok := st.m[e.id]; ok {
		st.unlink(old)
		delete(st.m, old.id)
	}
	st.m[e.id] = e
	e.prev = nil
	e.next = st.head
	if st.head != nil {
		st.head.prev = e
	}
	st.head = e
	if st.tail == nil {
		st.tail = e
	}
	for len(st.m) > st.cap {
		old := st.tail
		st.unlink(old)
		delete(st.m, old.id)
		st.dropped++
	}
}

// take removes and returns the snapshot for id, if one is held.
func (st *spillStore) take(id uint64) (*spillEntry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.m[id]
	if !ok {
		return nil, false
	}
	st.unlink(e)
	delete(st.m, id)
	return e, true
}

// unlink removes e from the recency list (st.mu held).
func (st *spillStore) unlink(e *spillEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		st.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		st.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// len returns the number of held snapshots (for tests).
func (st *spillStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m)
}

// snapshot serializes a quiescent session into a spill entry, or nil when
// its prefetcher is not a PATHFINDER. The snapshot is SaveSession's, which
// also captures transient state, so the session restored by
// core.LoadSession continues bit-identically instead of re-warming.
func snapshot(s *session) *spillEntry {
	pf, ok := s.pf.(*core.Pathfinder)
	if !ok {
		return nil
	}
	var buf bytes.Buffer
	if pf.SaveSession(&buf) != nil {
		return nil
	}
	return &spillEntry{id: s.id, blob: buf.Bytes(), lastID: s.lastID, shedID: s.shedID}
}
