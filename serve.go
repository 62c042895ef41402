package pathfinder

import (
	"pathfinder/internal/serve"
)

// Serving types: the prefetch-as-a-service daemon behind cmd/pfserved.
// See docs/serving.md for the wire protocol, session lifecycle,
// backpressure semantics and drain guarantees.
type (
	// ServeConfig configures a PrefetchServer: listen address, the
	// per-session prefetcher factory, the session cap (max sessions, LRU
	// idle eviction), the bounded queue depths that make backpressure
	// explicit, and the drain timeout.
	ServeConfig = serve.Config
	// PrefetchServer is a live prefetch-as-a-service daemon: per-session
	// online prefetchers in one session table, miss-stream
	// events in, predictions out, with bounded queues, admission control
	// and graceful drain.
	PrefetchServer = serve.Server
	// ServeEvalRequest is a one-shot evaluation job submitted over the
	// wire; it runs on the daemon's shared evaluation engine pool.
	ServeEvalRequest = serve.EvalRequest
	// ServeEvalResponse is the evaluation job's reply.
	ServeEvalResponse = serve.EvalResponse
)

// NewPrefetchServer binds the configured address and starts serving.
// Zero-value config fields take the documented defaults (127.0.0.1:0,
// per-session PATHFINDER instances, 1024 sessions, depth-256 queues). Stop it with (*PrefetchServer).Close (graceful drain bounded by
// ServeConfig.DrainTimeout) or Shutdown (caller-bounded drain).
func NewPrefetchServer(cfg ServeConfig) (*PrefetchServer, error) { return serve.New(cfg) }

// NewPrefetcherByName builds the named online prefetching technique from
// the technique registry that pfsim, pfsweep grids and the daemon's
// sessions and evaluation jobs share; the names are listed on
// NewPrefetcherByName in internal/serve (eval.go). It is the facade's one
// way to build a named technique: New builds PATHFINDER from a Config,
// and NewEnsemble, NewDynamicEnsemble and NewThrottle compose prefetchers.
func NewPrefetcherByName(name string, seed int64) (OnlinePrefetcher, error) {
	return serve.NewPrefetcherByName(name, seed)
}
