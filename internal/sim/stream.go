package sim

import (
	"context"

	"pathfinder/internal/trace"
)

// replayWindow feeds one core pipeline from a trace.Source with a
// one-record lookahead: the pipeline consumes accesses strictly in order,
// so peek/pop need only the next record, and replay holds no trace beyond
// it whatever the trace length. The source's terminal state (io.EOF or a
// decode error) is latched and delivered only after every record decoded
// before it has been replayed, so a stream that fails mid-decode still
// replays its valid prefix before the run reports the error.
type replayWindow struct {
	src  trace.Source
	next trace.Access
	has  bool  // next holds a decoded, not yet consumed record
	err  error // terminal source state; nil while the source is live
}

func newReplayWindow(src trace.Source) *replayWindow {
	return &replayWindow{src: src}
}

// rearm points the window at a new source and clears its state, so an
// Engine can reuse the window across runs.
func (w *replayWindow) rearm(src trace.Source) {
	*w = replayWindow{src: src}
}

// peek returns the next record without consuming it, pulling it from the
// source if needed. ok is false once the source is terminal.
func (w *replayWindow) peek() (trace.Access, bool) {
	if !w.has && w.err == nil {
		if err := w.src.Next(&w.next); err != nil {
			w.err = err
		} else {
			w.has = true
		}
	}
	return w.next, w.has
}

// pop consumes the record peek returned.
func (w *replayWindow) pop() { w.has = false }

// drained reports whether every record has been replayed and the source is
// terminal.
func (w *replayWindow) drained() bool {
	_, ok := w.peek()
	return !ok
}

// srcErr returns the source's terminal error: io.EOF for a clean end, the
// decode error otherwise, nil while the source is live.
func (w *replayWindow) srcErr() error { return w.err }

// RunStream is Run fed by a trace.Source instead of a materialized slice:
// the replay holds one access of lookahead per core, so heap usage is
// bounded regardless of trace length. Results are bit-identical
// to Run over the same records — Run is implemented on this path.
//
// A Source has no length, so Warmup semantics shift at one edge: a warmup
// that consumes the entire stream is detected at end of run (the slice
// path rejects it up front). Sources exposing Remaining() (uint64, bool)
// — SliceSource, counted trace files — keep the up-front rejection.
func RunStream(cfg Config, src trace.Source, pfs []trace.Prefetch) (Result, error) {
	return RunStreamCtx(context.Background(), cfg, src, pfs)
}

// RunStreamCtx is RunStream with cancellation.
func RunStreamCtx(ctx context.Context, cfg Config, src trace.Source, pfs []trace.Prefetch) (Result, error) {
	res, err := RunMultiStreamCtx(ctx, cfg, []trace.Source{src}, [][]trace.Prefetch{pfs})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// RunMultiStream is RunMulti fed by one trace.Source per core.
func RunMultiStream(cfg Config, srcs []trace.Source, pfs [][]trace.Prefetch) ([]Result, error) {
	return RunMultiStreamCtx(context.Background(), cfg, srcs, pfs)
}

// RunMultiStreamCtx is RunMultiStream with cancellation: the scheduling
// loop polls ctx every few thousand steps and returns ctx.Err() when
// cancelled.
//
// It runs on a pooled Engine (AcquireEngine), so repeated calls with the
// same configuration reuse the machine's memory instead of rebuilding the
// hierarchy; results are bit-identical to a fresh Engine either way.
// Long-lived callers that want explicit ownership can hold an Engine (or a
// pool of them) and call its methods directly.
func RunMultiStreamCtx(ctx context.Context, cfg Config, srcs []trace.Source, pfs [][]trace.Prefetch) ([]Result, error) {
	eng, release := AcquireEngine(cfg)
	defer release()
	return eng.RunMultiStreamCtx(ctx, srcs, pfs)
}
