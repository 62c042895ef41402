package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pathfinder/internal/core"
	"pathfinder/internal/fault"
	"pathfinder/internal/prefetch"
	"pathfinder/internal/runner"
)

// Config configures a Server. The zero value is usable: it binds
// 127.0.0.1:0, serves default-configuration PATHFINDER sessions, and takes
// the documented defaults below.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:0"; port 0 picks a
	// free port, reported by Server.Addr).
	Addr string
	// NewPrefetcher builds the online prefetcher behind one session. The
	// default builds a DefaultConfig PATHFINDER seeded from the session id
	// (deterministic per id, independent across ids).
	NewPrefetcher func(session uint64) (prefetch.Prefetcher, error)
	// Budget caps predictions per event (default prefetch.Budget). New
	// refuses a budget above 256, the most addresses a predict frame
	// carries.
	Budget int
	// MaxSessions caps resident sessions (default 1024). When the table
	// is full, its least-recently-used idle session is evicted to make
	// room (a PATHFINDER session is first spilled, so it can resume; see
	// spillSessions); if every resident session has work in flight the
	// new session is rejected with RejectMaxSessions.
	MaxSessions int
	// QueueDepth bounds each session's event queue (default 256). An
	// event arriving at a full queue is rejected with RejectQueueFull.
	QueueDepth int
	// OutboundDepth bounds each connection's outbound reply queue
	// (default 256). When it fills — a slow client — the senders block,
	// which in turn fills the session queues and surfaces as
	// RejectQueueFull: memory stays bounded by construction.
	OutboundDepth int
	// MaxInFlight caps queued events across all sessions (0: no extra
	// cap; the table is already bounded by MaxSessions x QueueDepth).
	MaxInFlight int
	// DrainTimeout bounds Close's graceful drain (default 10s).
	DrainTimeout time.Duration
	// Runner evaluates one-shot FrameEval jobs (default: a fresh
	// runner.New with default config, sharing its caches across jobs).
	Runner *runner.Runner
	// Fault, if non-nil, is consulted at fault.SiteServe before each
	// event is processed; injected hangs and latency delay predictions
	// but never change them. Chaos testing only.
	Fault fault.Injector
}

// The daemon's fixed settings.
const (
	// spillSessions caps the server-wide ring of evicted-session
	// snapshots. When LRU pressure evicts an idle session whose
	// prefetcher is a PATHFINDER (*core.Pathfinder, whichever factory
	// built it), its learned weights, transient state and
	// duplicate-detection watermark are spilled into the ring; if the same
	// session id returns while the snapshot is still resident,
	// core.LoadSession rebuilds it and the session resumes exactly where
	// it left off instead of relearning from scratch. Sessions with any
	// other prefetcher are discarded on eviction. When the ring overflows,
	// the oldest snapshot is dropped.
	spillSessions = 64
	// retryHintMillis is the retry-after hint attached to queue-full and
	// overloaded rejects.
	retryHintMillis = 5
	// maxConcurrentEvals caps evaluation jobs running at once; each job
	// already parallelises internally via the runner pool.
	maxConcurrentEvals = 2
)

// withDefaults returns cfg with zero fields filled in.
func (cfg Config) withDefaults() Config {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.NewPrefetcher == nil {
		cfg.NewPrefetcher = DefaultSessionPrefetcher
	}
	if cfg.Budget <= 0 {
		cfg.Budget = prefetch.Budget
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 1024
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.OutboundDepth <= 0 {
		cfg.OutboundDepth = 256
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.Runner == nil {
		cfg.Runner = runner.New(runner.Config{})
	}
	return cfg
}

// DefaultSessionPrefetcher is the default per-session factory: a
// DefaultConfig PATHFINDER whose SNN seed derives deterministically from
// the session id, so a session's learned state depends only on its own id
// and event stream — never on arrival order across sessions.
func DefaultSessionPrefetcher(session uint64) (prefetch.Prefetcher, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = int64(session) | 1 // any odd seed; never zero
	return core.New(cfg)
}

// response is one server-to-client reply queued on a connection's bounded
// outbound channel; the writer goroutine encodes it as a frame.
type response struct {
	kind        byte
	session, id uint64
	addrs       []uint64
	code        byte
	retryMillis uint64
	msg         string
	body        []byte
	start       int64 // accept timestamp (UnixNano) for the latency histogram; 0: untimed
}

// Server is the prefetch-as-a-service daemon. Build one with New; it
// serves until Shutdown or Close.
type Server struct {
	cfg Config

	ln      net.Listener
	baseCtx context.Context
	cancel  context.CancelFunc

	table    *table
	draining atomic.Bool
	inflight atomic.Int64

	acceptWG sync.WaitGroup
	workers  sync.WaitGroup // session workers
	evals    sync.WaitGroup // in-flight evaluation jobs
	readers  sync.WaitGroup
	writers  sync.WaitGroup
	evalSem  chan struct{}

	mu    sync.Mutex
	conns map[*conn]struct{}

	shutOnce sync.Once
	shutErr  error
}

// New binds cfg.Addr and starts serving. The returned server is live:
// connect to Addr(), or call Shutdown/Close to stop it.
func New(cfg Config) (*Server, error) {
	if cfg.Budget > maxPredictAddrs {
		// A larger budget would answer events with predict frames the
		// protocol's own FrameReader refuses.
		return nil, fmt.Errorf("serve: Config.Budget %d exceeds the %d addresses a predict frame carries", cfg.Budget, maxPredictAddrs)
	}
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		ln:      ln,
		baseCtx: ctx,
		cancel:  cancel,
		evalSem: make(chan struct{}, maxConcurrentEvals),
		conns:   make(map[*conn]struct{}),
	}
	s.table = &table{srv: s, cap: cfg.MaxSessions, spill: spillStore{cap: spillSessions}}
	s.acceptWG.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SessionCount returns the number of resident sessions.
func (s *Server) SessionCount() int { return s.table.sessionCount() }

// acceptLoop admits connections until the listener closes.
func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		if s.draining.Load() {
			nc.Close()
			continue
		}
		c := &conn{
			srv:      s,
			nc:       nc,
			out:      make(chan response, s.cfg.OutboundDepth),
			dead:     make(chan struct{}),
			finished: make(chan struct{}),
		}
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		if m := serveTele.Load(); m != nil {
			m.conns.Add(1)
			m.connsTotal.Inc()
		}
		s.readers.Add(1)
		go c.readLoop()
		s.writers.Add(1)
		go c.writeLoop()
	}
}

// Shutdown gracefully drains the server: it stops accepting connections
// and events (new events are rejected with RejectDraining), flushes every
// already-accepted event through its session worker exactly once, delivers
// the pending replies, and closes the connections. The drain is bounded by
// ctx: on expiry the remaining connections are force-closed (accepted
// events are still processed — their replies are dropped — so session
// state never forks) and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() { s.shutErr = s.shutdown(ctx) })
	return s.shutErr
}

func (s *Server) shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.ln.Close()
	s.acceptWG.Wait()
	// The draining flag is observed under the table mutex, so after
	// closeAll no further event can be enqueued and closing the session
	// queues is safe.
	s.table.closeAll()

	forced := false
	workersDone := make(chan struct{})
	go func() {
		s.workers.Wait()
		s.evals.Wait()
		close(workersDone)
	}()
	select {
	case <-workersDone:
	case <-ctx.Done():
		// Deadline: cancel injected hangs and unblock workers stuck on
		// slow clients' outbound queues, then let them finish draining.
		forced = true
		s.cancel()
		s.killConns()
		<-workersDone
	}

	// All replies are queued; close the connections (flushing first on
	// the graceful path).
	s.mu.Lock()
	for c := range s.conns {
		if forced {
			c.markDead()
		} else {
			c.finish()
		}
	}
	s.mu.Unlock()

	connsDone := make(chan struct{})
	go func() {
		s.writers.Wait()
		s.readers.Wait()
		close(connsDone)
	}()
	select {
	case <-connsDone:
	case <-ctx.Done():
		if !forced {
			forced = true
			s.killConns()
		}
		<-connsDone
	}
	s.cancel()
	if forced {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("serve: drain cut short: %w", err)
		}
	}
	return nil
}

// killConns force-closes every connection.
func (s *Server) killConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		c.markDead()
	}
}

// Close shuts the server down, allowing the configured DrainTimeout for
// the graceful drain.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return s.Shutdown(ctx)
}

// conn is one client connection: a reader goroutine that parses and
// dispatches frames, a bounded outbound queue, and a writer goroutine that
// encodes replies.
type conn struct {
	srv *Server
	nc  net.Conn

	out      chan response
	dead     chan struct{} // closed when the connection is unusable
	deadOnce sync.Once
	finished chan struct{} // closed by the server after the last reply is queued
	finOnce  sync.Once
}

// markDead makes the connection unusable: senders stop blocking, the
// writer discards, and the socket closes (unblocking the reader).
func (c *conn) markDead() {
	c.deadOnce.Do(func() {
		close(c.dead)
		c.nc.Close()
	})
}

// finish tells the writer no further replies are coming: flush and close.
func (c *conn) finish() {
	c.finOnce.Do(func() { close(c.finished) })
}

// send queues one reply. It blocks while the outbound queue is full —
// that back-pressure is what keeps a slow client's memory bounded — and
// returns false if the connection died instead.
func (c *conn) send(r response) bool {
	if m := serveTele.Load(); m != nil {
		m.outDepthPeak.SetMax(int64(len(c.out)) + 1)
	}
	select {
	case c.out <- r:
		return true
	case <-c.dead:
		return false
	}
}

// readLoop checks the magic, then parses and dispatches frames until the
// connection fails or the client disconnects.
func (c *conn) readLoop() {
	defer c.srv.readers.Done()
	defer c.markDead()
	br := bufio.NewReader(c.nc)
	m := serveTele.Load()
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != Magic {
		if m != nil {
			m.frameErrors.Inc()
		}
		c.send(response{kind: FrameReject, code: RejectBadRequest, msg: "bad magic"})
		return
	}
	fr := NewFrameReader(br)
	var f Frame
	for {
		payload, err := fr.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) && m != nil {
				m.frameErrors.Inc()
			}
			return
		}
		if m != nil {
			m.frames.Inc()
		}
		if err := ParseFrame(payload, &f); err != nil {
			// A frame that fails validation means the stream cannot be
			// trusted any further: reject and drop the connection. The
			// client resynchronises by reconnecting (stale rejects make
			// its resends idempotent).
			if m != nil {
				m.frameErrors.Inc()
			}
			c.send(response{kind: FrameReject, code: RejectBadRequest, msg: err.Error()})
			return
		}
		if !c.dispatch(&f) {
			return
		}
	}
}

// dispatch routes one parsed frame; it returns false when the connection
// should close.
func (c *conn) dispatch(f *Frame) bool {
	switch f.Kind {
	case FrameEvent:
		start := time.Now().UnixNano()
		code := c.srv.table.enqueue(c, f.Session, f.Event, start)
		if code != 0 {
			var retry uint64
			if code == RejectQueueFull || code == RejectOverloaded {
				retry = retryHintMillis
			}
			if m := serveTele.Load(); m != nil {
				m.shedFor(code).Inc()
				m.shed.Inc()
			}
			return c.send(response{
				kind:        FrameReject,
				session:     f.Session,
				id:          f.Event.ID,
				code:        code,
				retryMillis: retry,
			})
		}
		return true
	case FramePing:
		return c.send(response{kind: FramePong})
	case FrameEval:
		c.srv.handleEval(c, f.Body)
		return true
	default:
		// Clients must not send server-side frame kinds.
		if m := serveTele.Load(); m != nil {
			m.frameErrors.Inc()
		}
		c.send(response{kind: FrameReject, code: RejectBadRequest, msg: "unexpected frame kind"})
		return false
	}
}

// writeLoop encodes queued replies, batching everything available before
// each flush. It exits discarding on a dead connection, or flushing and
// closing on the graceful-finish signal.
func (c *conn) writeLoop() {
	defer func() {
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
		if m := serveTele.Load(); m != nil {
			m.conns.Add(-1)
		}
		c.srv.writers.Done()
	}()
	bw := bufio.NewWriter(c.nc)
	var scratch []byte
	write := func(r response) {
		if err := writeResponse(bw, &scratch, r); err != nil {
			c.markDead()
		}
		if r.start != 0 {
			if m := serveTele.Load(); m != nil {
				m.latency.Observe(uint64(time.Now().UnixNano() - r.start))
			}
		}
	}
	for {
		select {
		case r := <-c.out:
			write(r)
			// Batch whatever else is already queued, then flush once.
		batch:
			for {
				select {
				case r := <-c.out:
					write(r)
				default:
					break batch
				}
			}
			if err := bw.Flush(); err != nil {
				c.markDead()
			}
		case <-c.dead:
			// Discard whatever is queued so blocked senders drain, then
			// exit. Late sends select on dead and give up on their own.
			for {
				select {
				case <-c.out:
				default:
					return
				}
			}
		case <-c.finished:
			for {
				select {
				case r := <-c.out:
					write(r)
				default:
					bw.Flush()
					c.nc.Close()
					return
				}
			}
		}
	}
}

// writeResponse encodes one reply as a frame.
func writeResponse(bw *bufio.Writer, scratch *[]byte, r response) error {
	p := (*scratch)[:0]
	switch r.kind {
	case FramePredict:
		p = AppendPredictFrame(p, r.session, r.id, r.addrs)
	case FrameReject:
		p = AppendRejectFrame(p, r.session, r.id, r.code, r.retryMillis, r.msg)
	case FrameEvalResult:
		p = AppendEvalResultFrame(p, r.body)
	case FramePong:
		p = AppendPongFrame(p)
	default:
		return fmt.Errorf("serve: unencodable response kind %#x", r.kind)
	}
	*scratch = p
	return WriteFrame(bw, p)
}
