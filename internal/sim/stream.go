package sim

import "pathfinder/internal/trace"

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
