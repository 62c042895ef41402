package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"pathfinder/internal/fault"
	"pathfinder/internal/runner"
	"pathfinder/internal/serve"
)

// WorkerConfig configures a sweep worker.
type WorkerConfig struct {
	// Name identifies the worker in coordinator logs and lease state.
	Name string
	// Jobs is the worker's copy of the grid; it must expand to the same
	// cells, in the same order, as the coordinator's (see CellSpec).
	Jobs []runner.Job
	// Runner, if non-nil, is the local evaluation engine; otherwise one
	// is built from RunnerConfig. Sharing a Runner between workers of a
	// process shares its trace/baseline caches.
	Runner *runner.Runner
	// RunnerConfig builds the engine when Runner is nil. It must carry
	// the same Loads/Seed defaults as the coordinator's, or cell keys
	// diverge.
	RunnerConfig runner.Config
	// Fault, if non-nil, injects wire faults (SiteDistConn) and worker
	// kills (SiteDistWorker) — the chaos knobs. Engine-level faults
	// belong in RunnerConfig.Fault instead.
	Fault fault.Injector
	// DialRetry bounds how long the worker retries the initial dial —
	// it may start before the coordinator listens (default 2s).
	DialRetry time.Duration
	// Logf, if set, receives worker lifecycle lines.
	Logf func(format string, args ...any)
}

// Worker evaluates coordinator-granted cells on a local runner. One
// Worker drives one connection; run several for per-process parallelism
// (sharing a Runner keeps the caches shared).
type Worker struct {
	cfg      WorkerConfig
	r        *runner.Runner
	draining atomic.Bool
}

// Drain asks the worker to stop after its current cell: the next time it
// would request a grant it instead tells the coordinator it is done and
// Run returns nil. Safe from any goroutine (pfsweep calls it from the
// signal handler).
func (w *Worker) Drain() { w.draining.Store(true) }

// NewWorker builds a worker.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.DialRetry <= 0 {
		cfg.DialRetry = 2 * time.Second
	}
	r := cfg.Runner
	if r == nil {
		r = runner.New(cfg.RunnerConfig)
	}
	return &Worker{cfg: cfg, r: r}
}

// Run connects to the coordinator at addr and evaluates granted cells
// until the sweep is done (nil), the context ends, or the connection (or
// this worker, under injected kills) dies. A killed worker returns
// fault.ErrWorkerKill; the harness respawns a replacement.
func (w *Worker) Run(ctx context.Context, addr string) error {
	conn, err := w.dial(ctx, addr)
	if err != nil {
		return err
	}
	// Silent-kill mode hands the open connection to a holder goroutine
	// instead of closing it, so the coordinator sees a missed heartbeat
	// rather than a dead peer.
	abandoned := false
	defer func() {
		if !abandoned {
			conn.Close()
		}
	}()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	if _, err := conn.Write([]byte(Magic)); err != nil {
		return fmt.Errorf("dist: worker %s: %w", w.cfg.Name, err)
	}
	mw := &msgWriter{w: conn, inj: w.cfg.Fault}
	fr := serve.NewFrameReader(conn)
	if err := mw.write(ctx, MsgHello, w.cfg.Name, Hello{Worker: w.cfg.Name, Cells: len(w.cfg.Jobs)}); err != nil {
		return fmt.Errorf("dist: worker %s: hello: %w", w.cfg.Name, err)
	}

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if w.draining.Load() {
			w.cfg.Logf("dist: worker %s: drained", w.cfg.Name)
			return nil
		}
		if err := mw.write(ctx, MsgRequest, w.cfg.Name, struct{}{}); err != nil {
			return fmt.Errorf("dist: worker %s: request: %w", w.cfg.Name, err)
		}
		kind, body, err := readMsg(fr)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("dist: worker %s: %w", w.cfg.Name, err)
		}
		switch kind {
		case MsgDone:
			w.cfg.Logf("dist: worker %s: sweep done", w.cfg.Name)
			return nil
		case MsgWait:
			var wt Wait
			if err := decode(kind, body, &wt); err != nil {
				return err
			}
			if err := sleepCtx(ctx, time.Duration(wt.RetryMillis)*time.Millisecond); err != nil {
				return err
			}
		case MsgGrant:
			var g Grant
			if err := decode(kind, body, &g); err != nil {
				return err
			}
			abandon, err := w.evaluate(ctx, conn, mw, g)
			if abandon {
				abandoned = true
				go holdConn(conn, fr)
				return err
			}
			if err != nil {
				return err
			}
		default:
			return fmt.Errorf("dist: worker %s: unexpected %s", w.cfg.Name, msgName(kind))
		}
	}
}

// evaluate runs one granted cell: divergence guard, seeded kill check,
// heartbeats for the lease's lifetime, then the result (or the permanent
// error verdict) back to the coordinator. The abandon return asks Run to
// leave the connection open — the silent half of the kill repertoire.
func (w *Worker) evaluate(ctx context.Context, conn net.Conn, mw *msgWriter, g Grant) (abandon bool, err error) {
	if g.Index < 0 || g.Index >= len(w.cfg.Jobs) {
		return false, fmt.Errorf("dist: worker %s: grant for cell %d outside the %d-cell grid", w.cfg.Name, g.Index, len(w.cfg.Jobs))
	}
	job := w.cfg.Jobs[g.Index]
	if key := w.r.CellKey(g.Index, job); key != g.Key {
		// The two sides expanded different grids. Journaling results
		// under the coordinator's identities would corrupt the ledger,
		// so refuse loudly and let the coordinator fail the cell.
		mw.write(ctx, MsgError, w.cfg.Name, ErrorMsg{
			Index: g.Index, Key: g.Key, Attempts: 1,
			Error: fmt.Sprintf("grid divergence: worker key %q != granted key %q", key, g.Key),
		})
		return false, fmt.Errorf("dist: worker %s: grid divergence on cell %d", w.cfg.Name, g.Index)
	}

	// The seeded mid-cell kill. Alternating the death mode by grant
	// attempt exercises both expiry paths: an abrupt close (the
	// coordinator sees the conn die) and a silent abandonment (only the
	// missed heartbeat gives it away).
	if w.cfg.Fault != nil {
		if kerr := w.cfg.Fault.Inject(ctx, fault.SiteDistWorker, g.Key, g.Attempt); kerr != nil {
			if !errors.Is(kerr, fault.ErrWorkerKill) {
				return false, kerr
			}
			if g.Attempt%2 == 0 {
				w.cfg.Logf("dist: worker %s: killed on cell %d attempt %d (abrupt)", w.cfg.Name, g.Index, g.Attempt)
				conn.Close()
				return false, fault.ErrWorkerKill
			}
			w.cfg.Logf("dist: worker %s: killed on cell %d attempt %d (silent)", w.cfg.Name, g.Index, g.Attempt)
			return true, fault.ErrWorkerKill
		}
	}

	// Heartbeat for the lease's lifetime at a third of it.
	hbCtx, stopHB := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		interval := time.Duration(g.LeaseMillis) * time.Millisecond / 3
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				// An injected drop severs the wire for real, so both
				// sides see one truth; any other failed beat means the
				// wire is already gone and the result write surfaces it.
				if err := mw.write(hbCtx, MsgHeartbeat, w.cfg.Name+"/"+g.Key, Heartbeat{Key: g.Key}); errors.Is(err, fault.ErrConnDrop) {
					conn.Close()
					return
				}
			}
		}
	}()
	res, evalErr := w.r.EvalCell(ctx, g.Index, job)
	stopHB()
	<-hbDone

	if evalErr != nil {
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		attempts := 1
		var je *runner.JobError
		if errors.As(evalErr, &je) {
			attempts = je.Attempts
		}
		w.cfg.Logf("dist: worker %s: cell %d failed permanently: %v", w.cfg.Name, g.Index, evalErr)
		if werr := mw.write(ctx, MsgError, fmt.Sprintf("%s/%s#%d", w.cfg.Name, g.Key, g.Attempt), ErrorMsg{
			Index: g.Index, Key: g.Key, Error: evalErr.Error(), Attempts: attempts,
		}); werr != nil {
			return false, werr
		}
		return false, nil
	}
	if werr := mw.write(ctx, MsgResult, fmt.Sprintf("%s/%s#%d", w.cfg.Name, g.Key, g.Attempt), ResultMsg{
		Index: g.Index, Key: g.Key, Result: res,
	}); werr != nil {
		return false, werr
	}
	return false, nil
}

// dial connects with retry: workers may start before the coordinator
// listens, and the kill-and-resume harness restarts coordinators under
// live workers.
func (w *Worker) dial(ctx context.Context, addr string) (net.Conn, error) {
	deadline := time.Now().Add(w.cfg.DialRetry)
	d := net.Dialer{}
	for {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dist: worker %s: dial %s: %w", w.cfg.Name, addr, err)
		}
		if serr := sleepCtx(ctx, 25*time.Millisecond); serr != nil {
			return nil, serr
		}
	}
}

// holdConn keeps an abandoned connection open — discarding whatever the
// coordinator sends — until the coordinator closes it, then releases it.
func holdConn(conn net.Conn, fr *serve.FrameReader) {
	defer conn.Close()
	for {
		if _, err := fr.Next(); err != nil {
			return
		}
	}
}

// sleepCtx blocks for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RunLocal runs a whole sweep in-process: a coordinator plus a fleet of
// workers over loopback TCP, all sharing one evaluation engine (and so
// one set of trace/baseline caches) — the shape the chaos harness
// perturbs, and the cheapest way to drive the whole wire path on one
// machine. cfg is the single-process runner configuration it mirrors:
// Journal becomes the sweep ledger, Progress receives the coordinator's
// terminal events, and everything else configures the workers' shared
// engine.
func RunLocal(ctx context.Context, cfg runner.Config, jobs []runner.Job, workers int) ([]runner.Result, *runner.RunReport, error) {
	if workers <= 0 {
		workers = cfg.Parallelism
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	wcfg := cfg
	wcfg.Journal = nil  // the coordinator owns the ledger
	wcfg.Progress = nil // the coordinator emits progress
	coord, err := NewCoordinator(CoordConfig{
		Jobs:         jobs,
		RunnerConfig: wcfg,
		Ledger:       cfg.Journal,
		Progress:     cfg.Progress,
	})
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("dist: %w", err)
	}
	coord.Serve(ln)
	addr := ln.Addr().String()

	wctx, cancelWorkers := context.WithCancel(ctx)
	defer cancelWorkers()
	shared := runner.New(wcfg)
	done := make(chan struct{})
	for i := 0; i < workers; i++ {
		w := NewWorker(WorkerConfig{
			Name:   fmt.Sprintf("local-%d", i),
			Jobs:   jobs,
			Runner: shared,
		})
		go func() {
			defer func() { done <- struct{}{} }()
			w.Run(wctx, addr)
		}()
	}
	results, report, rerr := coord.Run(ctx)
	cancelWorkers()
	for i := 0; i < workers; i++ {
		<-done
	}
	return results, report, rerr
}
