package serve

import (
	"bytes"
	"strconv"
	"sync"
	"sync/atomic"

	"pathfinder/internal/core"
	"pathfinder/internal/fault"
	"pathfinder/internal/flat"
	"pathfinder/internal/prefetch"
	"pathfinder/internal/trace"
)

// queuedEvent is one accepted event waiting in a session's bounded queue:
// the access, the connection its prediction goes back to, and the accept
// timestamp for the latency histogram.
type queuedEvent struct {
	acc   trace.Access
	c     *conn
	start int64
}

// session is one client session: a private online prefetcher plus a
// bounded event queue drained by a dedicated worker goroutine. All fields
// below the queue are guarded by the table mutex; pending is atomic
// because the worker decrements it without the lock.
type session struct {
	id uint64
	pf prefetch.Prefetcher

	// q is the bounded event queue. Capacity equals the configured
	// QueueDepth; the pending counter gates sends, so a send under the
	// table lock never blocks. Closed (by closeAll) to drain the session.
	q chan queuedEvent
	// stop makes the worker exit immediately; only ever closed while the
	// session is idle (pending == 0), so no accepted event is abandoned.
	stop chan struct{}
	// pending counts accepted-but-not-yet-fully-processed events. The
	// worker decrements it only after the event's reply has been handed to
	// the connection, so pending == 0 means the session is quiescent and
	// safe to evict.
	pending atomic.Int32

	// lastID is the largest accepted event id (table mutex). Events with
	// id <= lastID are duplicates of already-accepted work and are
	// rejected RejectStale, which makes client retries idempotent.
	lastID uint64
	// shedID, when non-zero, is the id of the first event shed since the
	// last acceptance: the session is "wedged" and accepts only that exact
	// id next (go-back-N), so a shed in the middle of a pipelined burst
	// cannot silently skip an event. Cleared on the next acceptance.
	shedID uint64
}

// faultKey names one event for the SiteServe injector: "session/id".
func (s *session) faultKey(id uint64) string {
	return strconv.FormatUint(s.id, 10) + "/" + strconv.FormatUint(id, 10)
}

// run is the session worker: it drains the queue in order, computing and
// sending one prediction per accepted event. It exits when the queue is
// closed (graceful drain, after delivering everything) or stop is closed
// (idle eviction).
func (s *session) run(srv *Server) {
	defer func() {
		if m := serveTele.Load(); m != nil {
			m.sessions.Add(-1)
		}
		srv.workers.Done()
	}()
	for {
		select {
		case ev, ok := <-s.q:
			if !ok {
				return
			}
			s.process(srv, ev)
		case <-s.stop:
			return
		}
	}
}

// process computes and delivers the prediction for one accepted event.
// Fault injection (SiteServe) may only delay it — the prediction itself is
// a pure function of the session's accepted event sequence, so injected
// latency and hangs never change what is served.
func (s *session) process(srv *Server, ev queuedEvent) {
	if inj := srv.cfg.Fault; inj != nil {
		// The injected sleep honours the server's base context, so a
		// forced shutdown interrupts a hung worker.
		_ = inj.Inject(srv.baseCtx, fault.SiteServe, s.faultKey(ev.acc.ID), 0)
	}
	addrs := s.pf.Advise(ev.acc, srv.cfg.Budget)
	if len(addrs) > srv.cfg.Budget {
		addrs = addrs[:srv.cfg.Budget]
	}
	// Advise may return a buffer it reuses; copy and block-align exactly
	// like the single-process prefetch-file driver does.
	out := make([]uint64, len(addrs))
	for i, a := range addrs {
		out[i] = a &^ (trace.BlockBytes - 1)
	}
	delivered := ev.c.send(response{
		kind:    FramePredict,
		session: s.id,
		id:      ev.acc.ID,
		addrs:   out,
		start:   ev.start,
	})
	if m := serveTele.Load(); m != nil && !delivered {
		m.dropped.Inc()
	}
	s.pending.Add(-1)
	srv.inflight.Add(-1)
}

// table is the session table: the resident sessions in recency order and
// the spill ring of evicted-session snapshots, under one mutex.
type table struct {
	srv      *Server
	mu       sync.Mutex
	sessions flat.LRU[*session] // session id -> session
	cap      int                // MaxSessions
	closed   bool
	spill    spillStore
}

// evictIdle evicts the least-recently-used quiescent session, returning
// false when every resident session still has events in flight (table
// mutex held). The evicted worker exits via its stop channel. The
// session's learned state and protocol watermarks are snapshotted into
// the spill ring first, so a returning session resumes instead of
// starting fresh (see docs/serving.md); when the prefetcher cannot
// serialize itself, the state is discarded. Quiescence (pending == 0)
// makes the snapshot safe: the worker only touches the prefetcher while
// an accepted event is pending.
func (t *table) evictIdle() bool {
	var victim *session
	t.sessions.Range(func(_ uint64, s **session) bool {
		if (*s).pending.Load() == 0 {
			victim = *s
		}
		return victim == nil
	})
	if victim == nil {
		return false
	}
	close(victim.stop)
	t.sessions.Delete(victim.id)
	m := serveTele.Load()
	if m != nil {
		m.evicted.Inc()
	}
	if e := snapshot(victim); e != nil {
		t.spill.put(e)
		if m != nil {
			m.spilled.Inc()
		}
	}
	return true
}

// enqueue admits one event into its session's queue, creating (or
// evicting into room for) the session as needed. It returns 0 on
// acceptance or the reject code, and never blocks: the pending counter
// gates the buffered channel send.
func (t *table) enqueue(c *conn, sid uint64, acc trace.Access, start int64) byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.srv.draining.Load() {
		return RejectDraining
	}
	m := serveTele.Load()
	var s *session
	if ps := t.sessions.Get(sid); ps != nil {
		s = *ps // Get made it the most recently used
	} else {
		if t.sessions.Len() >= t.cap && !t.evictIdle() {
			return RejectMaxSessions
		}
		var (
			pf       prefetch.Prefetcher
			restored *spillEntry
		)
		if e, ok := t.spill.take(sid); ok {
			if rpf, err := core.LoadSession(bytes.NewReader(e.blob)); err == nil {
				pf, restored = rpf, e
				if m != nil {
					m.restored.Inc()
				}
			} else if m != nil {
				// A corrupt snapshot falls back to a fresh session —
				// exactly what the id would have gotten without a spill
				// store — but the failure is counted, not swallowed.
				m.restoreErrors.Inc()
			}
		}
		if pf == nil {
			var err error
			if pf, err = t.srv.cfg.NewPrefetcher(sid); err != nil {
				return RejectBadRequest
			}
		}
		s = &session{
			id:   sid,
			pf:   pf,
			q:    make(chan queuedEvent, t.srv.cfg.QueueDepth),
			stop: make(chan struct{}),
		}
		if restored != nil {
			s.lastID, s.shedID = restored.lastID, restored.shedID
		}
		ps, _ := t.sessions.Insert(sid)
		*ps = s
		if m != nil {
			m.sessions.Add(1)
			m.sessionsPeak.SetMax(m.sessions.Value())
			m.sessionsTotal.Inc()
		}
		t.srv.workers.Add(1)
		go s.run(t.srv)
	}
	if acc.ID <= s.lastID {
		return RejectStale
	}
	if s.shedID != 0 && acc.ID != s.shedID {
		// Wedged: an earlier event was shed and must be resent first, or
		// the session's accepted stream would skip it.
		return RejectQueueFull
	}
	if int(s.pending.Load()) >= t.srv.cfg.QueueDepth {
		if s.shedID == 0 {
			s.shedID = acc.ID
		}
		return RejectQueueFull
	}
	if max := t.srv.cfg.MaxInFlight; max > 0 && t.srv.inflight.Load() >= int64(max) {
		if s.shedID == 0 {
			s.shedID = acc.ID
		}
		return RejectOverloaded
	}
	s.shedID = 0
	s.lastID = acc.ID
	depth := s.pending.Add(1)
	t.srv.inflight.Add(1)
	s.q <- queuedEvent{acc: acc, c: c, start: start}
	if m != nil {
		m.accepted.Inc()
		m.queueDepth.Observe(uint64(depth))
		m.queueDepthPeak.SetMax(int64(depth))
	}
	return 0
}

// closeAll marks the table closed and closes every resident session's
// queue: the workers drain what was accepted — exactly once — and exit.
// Called only from the server's shutdown path, after draining is set.
func (t *table) closeAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	t.sessions.Range(func(_ uint64, s **session) bool {
		close((*s).q)
		return true
	})
}

// sessionCount returns the number of resident sessions.
func (t *table) sessionCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sessions.Len()
}
