package serve

import (
	"bytes"

	"pathfinder/internal/core"
	"pathfinder/internal/flat"
)

// spillEntry is one evicted session's snapshot: the serialized prefetcher
// plus the protocol watermarks (duplicate detection and go-back-N wedge),
// so a restored session rejects exactly the ids the evicted one would
// have.
type spillEntry struct {
	id     uint64
	blob   []byte
	lastID uint64
	shedID uint64
}

// spillStore is a bounded LRU ring of evicted-session snapshots, guarded
// by the session table's mutex. When it is full, admitting a new snapshot
// drops the least recently spilled one — the same session losing state it
// would have lost without the store, just later.
type spillStore struct {
	ring    flat.LRU[spillEntry] // session id -> snapshot
	cap     int
	dropped int // snapshots pushed out by capacity (stats/tests)
}

// put admits a snapshot, replacing any previous snapshot for the same
// session and evicting the oldest entry when past capacity.
func (st *spillStore) put(e *spillEntry) {
	v, _ := st.ring.Insert(e.id)
	*v = *e
	for st.ring.Len() > st.cap {
		old, _ := st.ring.Oldest()
		st.ring.Delete(old)
		st.dropped++
	}
}

// take removes and returns the snapshot for id, if one is held.
func (st *spillStore) take(id uint64) (*spillEntry, bool) {
	v := st.ring.Peek(id)
	if v == nil {
		return nil, false
	}
	e := *v
	st.ring.Delete(id)
	return &e, true
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
