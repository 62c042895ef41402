package serve

import (
	"testing"
	"time"

	"pathfinder/internal/prefetch"
	"pathfinder/internal/trace"
)

// spilled returns the number of snapshots in the server's spill ring.
func spilled(srv *Server) int {
	srv.table.mu.Lock()
	defer srv.table.mu.Unlock()
	return srv.table.spill.ring.Len()
}

// quiesce waits until no accepted event is in flight. A worker drops its
// pending count just after handing over the reply the client reads, so
// without the wait a new session can find the resident one still busy
// and draw max-sessions instead of evicting it.
func quiesce(t *testing.T, srv *Server) {
	t.Helper()
	waitFor(t, 2*time.Second, func() bool { return srv.inflight.Load() == 0 })
}

// sendAndCollect drives accs through one session synchronously (one
// reply read per event sent) and returns the prediction stream.
func sendAndCollect(t *testing.T, c *testConn, sid uint64, accs []trace.Access) [][]uint64 {
	t.Helper()
	out := make([][]uint64, 0, len(accs))
	for _, a := range accs {
		if err := c.writeEvent(sid, a); err != nil {
			t.Fatalf("write event %d: %v", a.ID, err)
		}
		f := c.mustRead()
		if f.Kind != FramePredict || f.Session != sid || f.ID != a.ID {
			t.Fatalf("event %d: got frame kind %d session %d id %d", a.ID, f.Kind, f.Session, f.ID)
		}
		out = append(out, f.Addrs)
	}
	return out
}

// TestEvictedSessionRestoresLearnedState is the eviction-persistence
// regression test: a PATHFINDER session trained on half its trace is
// forced out by LRU pressure, and on return its remaining predictions —
// and its duplicate-detection watermark — must be bit-identical to a run
// that was never evicted. Before the spill store, eviction silently
// discarded the learned weights and the returning session relearned from
// scratch.
func TestEvictedSessionRestoresLearnedState(t *testing.T) {
	accs := genTrace(t, "cc-5", 400, 7)
	want := expectedPredictions(t, DefaultSessionPrefetcher, 1, accs, prefetch.Budget)

	// One resident session: creating session 2 must evict session 1.
	srv, err := New(Config{MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := dialBinary(t, srv.Addr())
	defer c.close()

	half := len(accs) / 2
	got := sendAndCollect(t, c, 1, accs[:half])

	// Force the eviction with an unrelated session, then prove session 1
	// is no longer resident but its snapshot is.
	evictor := genTrace(t, "cc-5", 1, 9)
	quiesce(t, srv)
	sendAndCollect(t, c, 2, evictor)
	if n := srv.SessionCount(); n != 1 {
		t.Fatalf("SessionCount = %d after eviction, want 1 (session 2 only)", n)
	}
	if n := spilled(srv); n != 1 {
		t.Fatalf("spill holds %d snapshots, want 1", n)
	}

	// The restored session must also remember what it already accepted: a
	// duplicate of the last pre-eviction event is stale, not a fresh event
	// that would fork the learned state.
	quiesce(t, srv)
	if err := c.writeEvent(1, accs[half-1]); err != nil {
		t.Fatal(err)
	}
	if f := c.mustRead(); f.Kind != FrameReject || f.Code != RejectStale {
		t.Fatalf("duplicate after restore: got kind %d code %d, want stale reject", f.Kind, f.Code)
	}

	got = append(got, sendAndCollect(t, c, 1, accs[half:])...)
	assertPredictionsMatch(t, 1, got, want)
}

// TestEvictedRegistrySessionRestoresLearnedState is the same regression
// for a PATHFINDER built by a custom factory, as `pfserved
// -session-prefetcher pathfinder-1tick` builds its sessions: spilling
// follows the prefetcher, not which factory made it.
func TestEvictedRegistrySessionRestoresLearnedState(t *testing.T) {
	factory := func(sid uint64) (prefetch.Prefetcher, error) {
		return NewPrefetcherByName("pathfinder-1tick", int64(sid)|1)
	}
	accs := genTrace(t, "cc-5", 400, 7)
	want := expectedPredictions(t, factory, 1, accs, prefetch.Budget)

	srv, err := New(Config{MaxSessions: 1, NewPrefetcher: factory})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dialBinary(t, srv.Addr())
	defer c.close()

	half := len(accs) / 2
	got := sendAndCollect(t, c, 1, accs[:half])
	quiesce(t, srv)
	sendAndCollect(t, c, 2, genTrace(t, "cc-5", 1, 9)) // evicts session 1
	if spilled(srv) != 1 {
		t.Fatal("evicted pathfinder-1tick session was not spilled")
	}
	quiesce(t, srv)
	got = append(got, sendAndCollect(t, c, 1, accs[half:])...)
	assertPredictionsMatch(t, 1, got, want)
}

// TestSpillStoreBounded pins the ring's capacity behaviour: the oldest
// snapshot is dropped when a new one would exceed the cap, and re-spilling
// a session replaces its previous snapshot instead of duplicating it.
func TestSpillStoreBounded(t *testing.T) {
	st := &spillStore{cap: 2}
	st.put(&spillEntry{id: 1})
	st.put(&spillEntry{id: 2})
	st.put(&spillEntry{id: 2, lastID: 7}) // replace, not duplicate
	if n := st.ring.Len(); n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
	st.put(&spillEntry{id: 3}) // pushes out id 1, the oldest
	if _, ok := st.take(1); ok {
		t.Fatal("oldest snapshot should have been dropped")
	}
	if st.dropped != 1 {
		t.Fatalf("dropped = %d, want 1", st.dropped)
	}
	e, ok := st.take(2)
	if !ok || e.lastID != 7 {
		t.Fatalf("take(2) = %+v, %v; want replaced snapshot with lastID 7", e, ok)
	}
	if _, ok := st.take(3); !ok {
		t.Fatal("newest snapshot missing")
	}
	if n := st.ring.Len(); n != 0 {
		t.Fatalf("len = %d after draining, want 0", n)
	}
}
