// Command pfserved is the prefetch-as-a-service daemon: it accepts
// miss-stream events over a length-prefixed binary protocol, maintains one
// online-learning prefetcher per session in one session table, and streams
// prefetch predictions back — PATHFINDER's real-time learning loop as a long-lived server. It
// also runs one-shot evaluation jobs on the shared engine pool.
//
// Usage:
//
//	pfserved                                  # serve on 127.0.0.1:9177
//	pfserved -addr :9000 -metrics-addr :9090  # custom port + /metrics + pprof
//	pfserved -session-prefetcher bo           # serve Best-Offset sessions
//
// Stop with SIGINT/SIGTERM: the daemon stops accepting work, flushes every
// accepted event exactly once, and exits within -drain-timeout. A second
// SIGINT/SIGTERM during the drain forces immediate exit with a nonzero
// status instead of waiting the drain out. See docs/serving.md for the
// protocol and lifecycle guarantees.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pathfinder"
)

func main() {
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	if err := run(context.Background(), sigs, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pfserved:", err)
		os.Exit(1)
	}
}

// errForced reports a shutdown that was forced by a second signal before
// the graceful drain finished.
var errForced = errors.New("forced-shutdown before drain completed")

// run is the whole daemon behind a flag.NewFlagSet, so tests can drive it
// end to end with an argv, a capturable stdout, a cancelable context, and
// a signal channel standing in for the process signal handler (nil: only
// the context stops the daemon).
func run(ctx context.Context, sigs <-chan os.Signal, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pfserved", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:9177", "listen address (port 0 picks a free port)")
		metricsAddr  = fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof here (empty: off)")
		sessionPF    = fs.String("session-prefetcher", "pathfinder", "prefetcher behind each session: any online technique name of the registry (NewPrefetcherByName in internal/serve/eval.go)")
		budget       = fs.Int("budget", 0, "predictions per event (0: the paper's budget of 2)")
		maxSessions  = fs.Int("max-sessions", 0, "resident-session cap with LRU idle eviction (0: 1024)")
		queueDepth   = fs.Int("queue-depth", 0, "bounded per-session event queue depth (0: 256)")
		outDepth     = fs.Int("out-depth", 0, "bounded per-connection outbound queue depth (0: 256)")
		maxInflight  = fs.Int("max-inflight", 0, "global queued-event admission cap (0: off)")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "graceful-drain bound at shutdown")
		evalLoads    = fs.Int("eval-loads", 0, "default trace length for evaluation jobs (0: 50000)")
		evalSeed     = fs.Int64("eval-seed", 0, "default seed for evaluation jobs (0: 1)")
		evalPar      = fs.Int("eval-parallelism", 0, "evaluation engine worker count (0: GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *metricsAddr != "" {
		pathfinder.EnableTelemetry()
		bound, stopMetrics, err := pathfinder.ServeTelemetry(*metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer stopMetrics()
		fmt.Fprintf(stdout, "pfserved metrics on http://%s/metrics\n", bound)
	}

	cfg := pathfinder.ServeConfig{
		Addr:          *addr,
		Budget:        *budget,
		MaxSessions:   *maxSessions,
		QueueDepth:    *queueDepth,
		OutboundDepth: *outDepth,
		MaxInFlight:   *maxInflight,
		DrainTimeout:  *drainTimeout,
		Runner: pathfinder.NewRunner(pathfinder.RunnerConfig{
			Loads:       *evalLoads,
			Seed:        *evalSeed,
			Parallelism: *evalPar,
		}),
	}
	if *sessionPF != "" && *sessionPF != "pathfinder" {
		name := *sessionPF
		// Probe the name up front so a typo fails at startup, not on the
		// first session.
		if _, err := pathfinder.NewPrefetcherByName(name, 1); err != nil {
			return err
		}
		cfg.NewPrefetcher = func(session uint64) (pathfinder.OnlinePrefetcher, error) {
			return pathfinder.NewPrefetcherByName(name, int64(session)|1)
		}
	}

	srv, err := pathfinder.NewPrefetchServer(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pfserved listening on %s (sessions: %s)\n", srv.Addr(), *sessionPF)

	select {
	case <-ctx.Done():
	case sig := <-sigs:
		fmt.Fprintf(stdout, "pfserved caught %s\n", sig)
	}
	fmt.Fprintf(stdout, "pfserved draining (timeout %s)\n", *drainTimeout)

	// Drain in the background so a second signal can preempt a drain that
	// is waiting out slow sessions: operators hitting ^C twice want the
	// process gone now, not in -drain-timeout.
	drained := make(chan error, 1)
	go func() { drained <- srv.Close() }()
	select {
	case err := <-drained:
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "pfserved drained cleanly")
		return nil
	case sig := <-sigs:
		fmt.Fprintf(stdout, "pfserved forced-shutdown on second %s\n", sig)
		return errForced
	}
}
