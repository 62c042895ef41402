package sim

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"pathfinder/internal/trace"
)

// streamFromSlice encodes accs into the unbounded binary container and
// returns a streaming decoder over it — an unbounded (length-unknown)
// Source carrying exactly those records.
func streamFromSlice(t testing.TB, accs []trace.Access) trace.Source {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, trace.NewSliceSource(accs)); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

// TestRunStreamMatchesRun is the replay-parity test: the same records,
// replayed once from a slice and once through the full encode →
// stream-decode → windowed-replay pipeline, must produce bit-identical
// Results.
func TestRunStreamMatchesRun(t *testing.T) {
	accs := seqTrace(4000, 64)
	var pfs []trace.Prefetch
	for _, a := range accs {
		if a.ID%3 == 0 {
			pfs = append(pfs, trace.Prefetch{ID: a.ID, Addr: a.Addr + trace.BlockBytes})
		}
	}
	cfg := DefaultConfig()
	cfg.Warmup = 400

	want, err := Run(cfg, accs, pfs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runStream(context.Background(), cfg, streamFromSlice(t, accs), pfs)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("streamed result differs:\n  stream: %+v\n  slice:  %+v", got, want)
	}
}

// TestRunMultiStreamMatchesRunMulti is the multi-core form, with cores of
// different lengths so the scheduler interleaves drained and live windows.
func TestRunMultiStreamMatchesRunMulti(t *testing.T) {
	cores := [][]trace.Access{seqTrace(3000, 64), seqTrace(1200, 4096), nil}
	cfg := DefaultConfig()
	cfg.Warmup = 100

	want, err := runMulti(cfg, cores, nil)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]trace.Source, len(cores))
	for i, accs := range cores {
		srcs[i] = streamFromSlice(t, accs)
	}
	got, err := runStreams(context.Background(), cfg, srcs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("core %d: streamed %+v, slice %+v", i, got[i], want[i])
		}
	}
}

// TestRunStreamWarmupExhaustsStream pins the unbounded-source warmup edge:
// with no length to check up front, a warmup that swallows the whole
// stream must surface as an end-of-run error, not silently measure the
// warmup window.
func TestRunStreamWarmupExhaustsStream(t *testing.T) {
	accs := seqTrace(100, 64)
	cfg := DefaultConfig()
	cfg.Warmup = len(accs)
	_, err := runStream(context.Background(), cfg, streamFromSlice(t, accs), nil)
	if err == nil {
		t.Fatal("stream replay accepted a warmup that consumed the whole stream")
	}
	if !strings.Contains(err.Error(), "warmup") {
		t.Fatalf("err = %v, want a warmup error", err)
	}
	// A Source with a known length keeps the slice path's up-front check.
	_, err = runStream(context.Background(), cfg, trace.NewSliceSource(accs), nil)
	if err == nil || !strings.Contains(err.Error(), "trace length") {
		t.Fatalf("SliceSource err = %v, want the up-front length error", err)
	}
}

// errAfterSource yields n valid records, then a decode error.
type errAfterSource struct {
	n   int
	i   int
	err error
}

func (s *errAfterSource) Next(a *trace.Access) error {
	if s.i >= s.n {
		return s.err
	}
	s.i++
	*a = trace.Access{ID: uint64(s.i), PC: 1, Addr: uint64(s.i) * trace.BlockBytes}
	return nil
}

// TestRunStreamPropagatesDecodeError checks a mid-stream decode error
// aborts the run with the error, after the valid prefix replayed.
func TestRunStreamPropagatesDecodeError(t *testing.T) {
	bad := errors.New("synthetic decode failure")
	_, err := runStream(context.Background(), DefaultConfig(), &errAfterSource{n: 600, err: bad}, nil)
	if err == nil {
		t.Fatal("stream replay swallowed a mid-stream decode error")
	}
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want wrapped %v", err, bad)
	}
}

// TestRunStreamCancellation mirrors the slice path's ctx polling with an
// unbounded source that never ends on its own.
func TestRunStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := &errAfterSource{n: 1 << 30, err: io.EOF}
	if _, err := runStream(ctx, DefaultConfig(), src, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestReplayWindowRefill exercises the window directly: every record
// comes out once, in order, and the terminal state is the source's io.EOF.
func TestReplayWindowRefill(t *testing.T) {
	n := 1000
	w := newReplayWindow(trace.NewSliceSource(seqTrace(n, 64)))
	seen := 0
	for {
		a, ok := w.peek()
		if !ok {
			break
		}
		if want := uint64(seen+1) * 64; a.ID != want {
			t.Fatalf("record %d has ID %d, want %d", seen, a.ID, want)
		}
		w.pop()
		seen++
	}
	if seen != n {
		t.Fatalf("replayed %d records, want %d", seen, n)
	}
	if w.srcErr() != io.EOF {
		t.Fatalf("terminal state = %v, want io.EOF", w.srcErr())
	}
}

func BenchmarkRunStream(b *testing.B) {
	accs := seqTrace(20000, 4096)
	var buf bytes.Buffer
	if err := trace.Encode(&buf, trace.NewSliceSource(accs)); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	cfg := DefaultConfig()
	cfg.Warmup = 2000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := runStream(context.Background(), cfg, rd, nil); err != nil {
			b.Fatal(err)
		}
	}
}
