package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"pathfinder/internal/fault"
	"pathfinder/internal/runner"
	"pathfinder/internal/serve"
	"pathfinder/internal/telemetry"
)

// CoordConfig configures a sweep coordinator.
type CoordConfig struct {
	// Jobs is the grid, in order. Workers must be started from the same
	// grid: grants carry grid indices and the coordinator's cell keys,
	// and a worker refuses a key its own grid does not reproduce.
	Jobs []runner.Job
	// RunnerConfig supplies the Loads/Seed defaults cell keys derive
	// from. It must match the workers' runner configuration, or the two
	// sides disagree on every cell identity.
	RunnerConfig runner.Config
	// Ledger, if non-nil, is the authoritative result ledger: cells it
	// already holds are resumed without regranting, every accepted
	// result is recorded before the cell is marked done, and a recording
	// conflict (two workers producing different payloads for one cell)
	// fails the whole sweep. The coordinator does not close it.
	Ledger *runner.Journal
	// Lease is each grant's lifetime; a lease not renewed by a
	// heartbeat within it expires and the cell is reassigned (default
	// 10s). Workers heartbeat at a third of it.
	Lease time.Duration
	// MaxGrants caps how many times one cell may be granted before it is
	// quarantined (default 3).
	MaxGrants int
	// GrantBackoff is the delay before an expired cell becomes grantable
	// again; it doubles per further expiry, capped at 5s (default 50ms).
	GrantBackoff time.Duration
	// Fault, if non-nil, injects wire faults (SiteDistConn) into the
	// coordinator's side of every connection. Chaos testing only.
	Fault fault.Injector
	// Progress, if set, receives one event per terminal cell, exactly as
	// a single-process run would emit: resumed, completed, or failed
	// (quarantined cells arrive as failures).
	Progress runner.ProgressFunc
	// Logf, if set, receives coordinator lifecycle lines.
	Logf func(format string, args ...any)
}

// Cell lease states.
const (
	cellPending = iota
	cellLeased
	cellDone
	cellFailed
	cellQuarantined
)

// cellState is the coordinator-side lease state machine for one cell:
// pending → leased → done/failed, with expiry looping leased back to
// pending (grants capped, backoff doubling) and the cap landing in
// quarantined.
type cellState struct {
	idx    int
	key    string
	status int
	// grants counts grants issued; the attempt ordinal of the next grant.
	grants int
	// nextEligible gates regranting after an expiry.
	nextEligible time.Time
	// holder, deadline, lastBeat describe the current lease.
	holder   *coordConn
	deadline time.Time
	lastBeat time.Time
}

// coordConn is one accepted worker connection.
type coordConn struct {
	name string
	conn net.Conn
	mw   *msgWriter
}

// Coordinator owns a sweep: the grid, the ledger, and the lease table.
// Start one with NewCoordinator, attach a listener with Serve, and block
// on Run; Drain and Stop end it early.
type Coordinator struct {
	cfg  CoordConfig
	keys *runner.Runner // cell-key derivation only; never evaluates

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	ln       net.Listener
	cells    []*cellState
	results  []runner.Result
	report   *runner.RunReport
	open     int // cells not yet terminal
	leased   int // cells currently leased
	doneN    int // terminal cells, for Progress.Done
	draining bool
	failed   error
	conns    map[*coordConn]struct{}

	done      chan struct{}
	doneOnce  sync.Once
	drainCh   chan struct{}
	drainOnce sync.Once
	start     time.Time
	wg        sync.WaitGroup
}

// NewCoordinator builds a coordinator over the grid, resuming every cell
// the ledger already holds (each resumed cell emits a Progress event
// immediately). Call Serve to start accepting workers.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if len(cfg.Jobs) == 0 {
		return nil, errors.New("dist: empty grid")
	}
	if cfg.Lease <= 0 {
		cfg.Lease = 10 * time.Second
	}
	if cfg.MaxGrants <= 0 {
		cfg.MaxGrants = 3
	}
	if cfg.GrantBackoff <= 0 {
		cfg.GrantBackoff = 50 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	keyCfg := cfg.RunnerConfig
	keyCfg.Journal, keyCfg.Progress, keyCfg.Fault = nil, nil, nil
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:     cfg,
		keys:    runner.New(keyCfg),
		ctx:     ctx,
		cancel:  cancel,
		results: make([]runner.Result, len(cfg.Jobs)),
		report:  &runner.RunReport{Total: len(cfg.Jobs)},
		open:    len(cfg.Jobs),
		conns:   make(map[*coordConn]struct{}),
		done:    make(chan struct{}),
		drainCh: make(chan struct{}),
		start:   time.Now(),
	}
	for i, job := range cfg.Jobs {
		c.cells = append(c.cells, &cellState{idx: i, key: c.keys.CellKey(i, job)})
	}
	// Resume: cells the ledger already holds never hit the wire again.
	if cfg.Ledger != nil {
		c.mu.Lock()
		for _, cs := range c.cells {
			if res, ok := cfg.Ledger.Lookup(cs.key); ok {
				cs.status = cellDone
				c.results[cs.idx] = res
				c.report.Resumed++
				c.terminal(cs, runner.Progress{
					Trace: res.Trace, Prefetcher: res.Prefetcher,
					Wall: res.Wall, Cycles: res.Cycles, Resumed: true,
				})
			}
		}
		c.mu.Unlock()
	}
	return c, nil
}

// Serve starts accepting workers on ln (which the coordinator now owns
// and closes on shutdown). It returns immediately; Run blocks.
func (c *Coordinator) Serve(ln net.Listener) {
	c.mu.Lock()
	c.ln = ln
	c.mu.Unlock()
	c.wg.Add(3)
	go c.acceptLoop(ln)
	go c.reaper()
	go c.drainWatcher()
}

// Addr returns the listener address, for workers started after Serve.
func (c *Coordinator) Addr() net.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ln == nil {
		return nil
	}
	return c.ln.Addr()
}

// Drain stops granting: in-flight leases finish (or expire), pending
// cells stay unevaluated, and Run returns a partial report. Like Stop it
// only signals — the drain watcher applies it — so it is safe to call
// from any goroutine, including a Progress sink fired under the
// coordinator's lock.
func (c *Coordinator) Drain() {
	c.drainOnce.Do(func() { close(c.drainCh) })
}

// drainWatcher applies a Drain signal under the lock.
func (c *Coordinator) drainWatcher() {
	defer c.wg.Done()
	select {
	case <-c.ctx.Done():
		return
	case <-c.drainCh:
	}
	c.mu.Lock()
	c.draining = true
	c.cfg.Logf("dist: coordinator draining (%d cells open, %d leased)", c.open, c.leased)
	c.maybeFinish()
	c.mu.Unlock()
}

// Stop aborts the sweep immediately — the kill half of the ledger
// kill-and-resume contract. It only signals: teardown happens inside
// Run, so Stop is safe to call from any goroutine, including a Progress
// sink fired under the coordinator's lock.
func (c *Coordinator) Stop() { c.cancel() }

// ErrStopped is the Run error after a Stop: the sweep was killed, not
// finished, and the ledger is the resume point.
var ErrStopped = errors.New("dist: coordinator stopped")

// Run blocks until the sweep finishes (or drains, or is stopped, or ctx
// is cancelled), then tears the coordinator down: listener and worker
// connections closed, goroutines joined. Results are in grid order, with
// failed/unevaluated cells zero-valued; the report's Failed list carries
// one JobError per failed or quarantined cell. The error is non-nil only
// for whole-sweep failures — a ledger conflict or write error,
// cancellation, or a Stop.
func (c *Coordinator) Run(ctx context.Context) ([]runner.Result, *runner.RunReport, error) {
	stopped := false
	select {
	case <-c.done:
	case <-ctx.Done():
		c.fail(ctx.Err())
		<-c.done
	case <-c.ctx.Done():
		stopped = true
	}
	c.mu.Lock()
	graceful := !stopped && c.failed == nil
	c.mu.Unlock()
	c.shutdown(graceful)

	c.mu.Lock()
	defer c.mu.Unlock()
	c.report.Wall = time.Since(c.start)
	c.report.Telemetry = telemetry.GlobalSnapshot()
	sortFailed(c.report.Failed)
	err := c.failed
	if err == nil && stopped {
		err = ErrStopped
	}
	if err != nil {
		return nil, c.report, err
	}
	return append([]runner.Result(nil), c.results...), c.report, nil
}

// shutdown closes the listener and every live connection, then joins the
// accept loop, the reaper, and the connection handlers. On a graceful
// end it first gives connected workers a moment to request, hear
// MsgDone, and hang up on their own — closing underneath a request in
// flight would turn a clean sweep end into spurious broken-pipe errors
// across the fleet.
func (c *Coordinator) shutdown(graceful bool) {
	if graceful {
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			c.mu.Lock()
			n := len(c.conns)
			c.mu.Unlock()
			if n == 0 {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	c.cancel()
	c.mu.Lock()
	if c.ln != nil {
		c.ln.Close()
	}
	for cc := range c.conns {
		cc.conn.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// fail records a whole-sweep failure and releases Run.
func (c *Coordinator) fail(err error) {
	c.mu.Lock()
	if c.failed == nil {
		c.failed = err
	}
	c.mu.Unlock()
	c.doneOnce.Do(func() { close(c.done) })
}

// maybeFinish releases Run when every cell is terminal — or, while
// draining, when no lease is outstanding. Callers hold mu.
func (c *Coordinator) maybeFinish() {
	if c.open == 0 || (c.draining && c.leased == 0) {
		c.doneOnce.Do(func() { close(c.done) })
	}
}

// terminal publishes one cell's terminal state: the Progress event (with
// the coordinator-wide done counter) and the sweep-completion check.
// Callers hold mu and have already updated the report counters.
func (c *Coordinator) terminal(cs *cellState, p runner.Progress) {
	c.open--
	c.doneN++
	if cs.grants > 1 {
		// Every grant beyond the first was a reassignment.
		c.report.Retries += cs.grants - 1
	}
	p.Done, p.Total = c.doneN, len(c.cfg.Jobs)
	if c.cfg.Progress != nil {
		c.cfg.Progress(p)
	}
	c.maybeFinish()
}

// acceptLoop admits workers until the listener closes.
func (c *Coordinator) acceptLoop(ln net.Listener) {
	defer c.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go c.handleConn(conn)
	}
}

// reaper expires overdue leases. Ticking at a quarter of the lease keeps
// the worst-case detection latency at 1.25 leases.
func (c *Coordinator) reaper() {
	defer c.wg.Done()
	tick := c.cfg.Lease / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
		}
		now := time.Now()
		c.mu.Lock()
		for _, cs := range c.cells {
			if cs.status == cellLeased && now.After(cs.deadline) {
				c.expireLocked(cs, "missed heartbeat")
			}
		}
		c.mu.Unlock()
	}
}

// expireLocked ends a lease without a result: the cell goes back to
// pending with doubled backoff, or to quarantine once its grant budget
// is spent. Callers hold mu.
func (c *Coordinator) expireLocked(cs *cellState, cause string) {
	m := distTele.Load()
	m.leaseExpired()
	holder := ""
	if cs.holder != nil {
		holder = cs.holder.name
	}
	cs.holder = nil
	c.leased--
	if cs.grants >= c.cfg.MaxGrants {
		cs.status = cellQuarantined
		m.quarantine()
		job := c.cfg.Jobs[cs.idx]
		je := &runner.JobError{
			Index: cs.idx, Trace: job.Trace, Label: job.Label,
			Attempts: cs.grants,
			Err:      fmt.Errorf("dist: cell quarantined after %d grants (last worker %q: %s)", cs.grants, holder, cause),
		}
		c.report.Failed = append(c.report.Failed, je)
		c.report.Quarantined++
		c.cfg.Logf("dist: quarantined cell %d (%s) after %d grants", cs.idx, cs.key, cs.grants)
		c.terminal(cs, runner.Progress{Trace: job.Trace, Prefetcher: job.Label, Err: je})
		return
	}
	cs.status = cellPending
	backoff := c.cfg.GrantBackoff << (cs.grants - 1)
	if backoff > 5*time.Second || backoff <= 0 {
		backoff = 5 * time.Second
	}
	cs.nextEligible = time.Now().Add(backoff)
	m.reassign()
	c.cfg.Logf("dist: lease on cell %d (%s) expired (%s, worker %q), regrant #%d after %s",
		cs.idx, cs.key, cause, holder, cs.grants, backoff)
}

// handleConn drives one worker connection: magic and hello, then the
// request/grant/heartbeat/result loop until the peer (or the sweep)
// goes away. Every lease the worker still holds when the connection
// dies expires immediately.
func (c *Coordinator) handleConn(conn net.Conn) {
	defer c.wg.Done()
	defer conn.Close()
	var magic [4]byte
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(conn, magic[:]); err != nil || string(magic[:]) != Magic {
		c.cfg.Logf("dist: rejecting connection from %s: bad magic", conn.RemoteAddr())
		return
	}
	conn.SetReadDeadline(time.Time{})
	fr := serve.NewFrameReader(conn)
	kind, body, err := readMsg(fr)
	if err != nil || kind != MsgHello {
		c.cfg.Logf("dist: rejecting connection from %s: expected hello", conn.RemoteAddr())
		return
	}
	var hello Hello
	if err := decode(kind, body, &hello); err != nil {
		return
	}
	if hello.Cells != len(c.cfg.Jobs) {
		c.cfg.Logf("dist: rejecting worker %q: grid size %d != %d", hello.Worker, hello.Cells, len(c.cfg.Jobs))
		return
	}
	cc := &coordConn{name: hello.Worker, conn: conn, mw: &msgWriter{w: conn, inj: c.cfg.Fault}}
	c.mu.Lock()
	if c.ctx.Err() != nil {
		// shutdown cancels before it closes the registered connections, so
		// a connection registered now would never be closed and its read
		// loop would block shutdown's join forever.
		c.mu.Unlock()
		return
	}
	c.conns[cc] = struct{}{}
	c.mu.Unlock()
	m := distTele.Load()
	m.workerUp()
	c.cfg.Logf("dist: worker %q connected from %s", cc.name, conn.RemoteAddr())

	defer func() {
		c.mu.Lock()
		delete(c.conns, cc)
		for _, cs := range c.cells {
			if cs.status == cellLeased && cs.holder == cc {
				c.expireLocked(cs, "connection closed")
			}
		}
		c.mu.Unlock()
		m.workerDown()
	}()

	for {
		kind, body, err := readMsg(fr)
		if err != nil {
			if c.ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
				m.connDrop()
				c.cfg.Logf("dist: worker %q connection lost: %v", cc.name, err)
			}
			return
		}
		switch kind {
		case MsgRequest:
			if err := c.handleRequest(cc); err != nil {
				return
			}
		case MsgHeartbeat:
			var hb Heartbeat
			if err := decode(kind, body, &hb); err != nil {
				return
			}
			c.handleHeartbeat(cc, hb)
		case MsgResult:
			var res ResultMsg
			if err := decode(kind, body, &res); err != nil {
				return
			}
			c.handleResult(cc, res)
		case MsgError:
			var em ErrorMsg
			if err := decode(kind, body, &em); err != nil {
				return
			}
			c.handleError(cc, em)
		default:
			c.cfg.Logf("dist: worker %q sent unexpected %s", cc.name, msgName(kind))
			return
		}
	}
}

// handleRequest answers one work request: a grant if a cell is
// grantable, done if the sweep is over (or draining), a wait otherwise.
func (c *Coordinator) handleRequest(cc *coordConn) error {
	now := time.Now()
	c.mu.Lock()
	if c.failed != nil || c.draining || c.open == 0 {
		c.mu.Unlock()
		return cc.mw.write(c.ctx, MsgDone, cc.name, struct{}{})
	}
	var pick *cellState
	for _, cs := range c.cells {
		if cs.status == cellPending && !now.Before(cs.nextEligible) {
			pick = cs
			break
		}
	}
	if pick == nil {
		c.mu.Unlock()
		retry := c.cfg.GrantBackoff
		if retry > c.cfg.Lease/2 {
			retry = c.cfg.Lease / 2
		}
		return cc.mw.write(c.ctx, MsgWait, cc.name, Wait{RetryMillis: int64(retry / time.Millisecond)})
	}
	attempt := pick.grants
	pick.grants++
	pick.status = cellLeased
	pick.holder = cc
	pick.deadline = now.Add(c.cfg.Lease)
	pick.lastBeat = now
	c.leased++
	c.mu.Unlock()
	distTele.Load().leaseGranted()
	c.cfg.Logf("dist: granted cell %d (%s) attempt %d to worker %q", pick.idx, pick.key, attempt, cc.name)
	return cc.mw.write(c.ctx, MsgGrant, fmt.Sprintf("%s/%s#%d", cc.name, pick.key, attempt), Grant{
		Index:       pick.idx,
		Key:         pick.key,
		Attempt:     attempt,
		LeaseMillis: int64(c.cfg.Lease / time.Millisecond),
	})
}

// handleHeartbeat renews the worker's lease on a cell. Beats for a lease
// the worker no longer holds (already expired and reassigned) are
// ignored — its late result will still be accepted if it arrives before
// the replacement's.
func (c *Coordinator) handleHeartbeat(cc *coordConn, hb Heartbeat) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cs := range c.cells {
		if cs.status == cellLeased && cs.holder == cc && cs.key == hb.Key {
			distTele.Load().heartbeat(now.Sub(cs.lastBeat))
			cs.lastBeat = now
			cs.deadline = now.Add(c.cfg.Lease)
			return
		}
	}
}

// handleResult accepts one completed cell: ledger first (idempotent on
// duplicates, whole-sweep failure on conflicts), then the lease table.
// A late result from a worker whose lease already expired is accepted as
// long as the cell is not yet terminal; after that it only has to agree
// with the recorded payload.
func (c *Coordinator) handleResult(cc *coordConn, msg ResultMsg) {
	c.mu.Lock()
	if msg.Index < 0 || msg.Index >= len(c.cells) || c.cells[msg.Index].key != msg.Key {
		c.mu.Unlock()
		c.fail(fmt.Errorf("dist: worker %q returned result for unknown cell %d (%s)", cc.name, msg.Index, msg.Key))
		return
	}
	cs := c.cells[msg.Index]
	if cs.status == cellDone || cs.status == cellFailed || cs.status == cellQuarantined {
		// A reassignment race resolved twice. Legal only because cells
		// are deterministic: the payloads must agree.
		c.mu.Unlock()
		distTele.Load().duplicateResult()
		if cs.status == cellDone && !runner.PayloadEqual(c.results[msg.Index], msg.Result) {
			c.fail(fmt.Errorf("dist: conflicting duplicate result for cell %q from worker %q", msg.Key, cc.name))
		}
		return
	}
	if c.cfg.Ledger != nil {
		if err := c.cfg.Ledger.Record(msg.Key, msg.Result); err != nil {
			c.mu.Unlock()
			// Losing (or corrupting) the ledger is a whole-sweep failure:
			// a resume would repeat or contradict finished work.
			c.fail(err)
			return
		}
	}
	if cs.status == cellLeased {
		if cs.holder != cc {
			// The original worker out-raced its replacement.
			distTele.Load().duplicateResult()
		}
		c.leased--
	}
	cs.status = cellDone
	cs.holder = nil
	c.results[msg.Index] = msg.Result
	c.report.Completed++
	distTele.Load().result()
	c.terminal(cs, runner.Progress{
		Trace: msg.Result.Trace, Prefetcher: msg.Result.Prefetcher,
		Wall: msg.Result.Wall, Cycles: msg.Result.Cycles,
	})
	c.mu.Unlock()
}

// handleError fails one cell permanently: the worker is alive and its
// local runner already applied the retry policy, so the verdict is
// deterministic and regranting would only repeat it.
func (c *Coordinator) handleError(cc *coordConn, msg ErrorMsg) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if msg.Index < 0 || msg.Index >= len(c.cells) || c.cells[msg.Index].key != msg.Key {
		return
	}
	cs := c.cells[msg.Index]
	if cs.status != cellLeased && cs.status != cellPending {
		return // late verdict for a cell that already resolved
	}
	if cs.status == cellLeased {
		c.leased--
	}
	cs.status = cellFailed
	cs.holder = nil
	job := c.cfg.Jobs[cs.idx]
	je := &runner.JobError{
		Index: cs.idx, Trace: job.Trace, Label: job.Label,
		Attempts: msg.Attempts,
		Err:      fmt.Errorf("dist: worker %q: %s", cc.name, msg.Error),
	}
	c.report.Failed = append(c.report.Failed, je)
	c.cfg.Logf("dist: cell %d (%s) failed permanently on worker %q: %s", cs.idx, cs.key, cc.name, msg.Error)
	c.terminal(cs, runner.Progress{Trace: job.Trace, Prefetcher: job.Label, Err: je})
}

// sortFailed orders the failure list by grid index, like the
// single-process report.
func sortFailed(failed []*runner.JobError) {
	for i := 1; i < len(failed); i++ {
		for k := i; k > 0 && failed[k].Index < failed[k-1].Index; k-- {
			failed[k], failed[k-1] = failed[k-1], failed[k]
		}
	}
}

// Nil-safe telemetry helpers: the coordinator's hot paths stay one
// pointer check when telemetry is off (the counters themselves are also
// nil-safe, so the methods work on a nil *distMetrics).
func (m *distMetrics) leaseGranted() {
	if m != nil {
		m.leasesGranted.Inc()
	}
}
func (m *distMetrics) leaseExpired() {
	if m != nil {
		m.leasesExpired.Inc()
	}
}
func (m *distMetrics) reassign() {
	if m != nil {
		m.leasesReassigned.Inc()
	}
}
func (m *distMetrics) quarantine() {
	if m != nil {
		m.quarantined.Inc()
	}
}
func (m *distMetrics) result() {
	if m != nil {
		m.results.Inc()
	}
}
func (m *distMetrics) duplicateResult() {
	if m != nil {
		m.duplicateResults.Inc()
	}
}
func (m *distMetrics) heartbeat(gap time.Duration) {
	if m != nil {
		m.heartbeats.Inc()
		m.heartbeatGapNs.Observe(uint64(gap))
	}
}
func (m *distMetrics) workerUp() {
	if m != nil {
		m.workers.Add(1)
	}
}
func (m *distMetrics) workerDown() {
	if m != nil {
		m.workers.Add(-1)
	}
}
func (m *distMetrics) connDrop() {
	if m != nil {
		m.connDrops.Inc()
	}
}
