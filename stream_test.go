package pathfinder

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"pathfinder/internal/trace"
)

// TestSimulateStreamMatchesSimulate pins the facade-level replay parity:
// the same records, once as a decoded PFT3 stream and once as a slice,
// simulate bit-identically.
func TestSimulateStreamMatchesSimulate(t *testing.T) {
	accs := collectTrace(t, "cc-5", 5000, 3)
	var buf bytes.Buffer
	if err := trace.Encode(&buf, NewSliceTraceSource(accs)); err != nil {
		t.Fatal(err)
	}
	rd, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScaledSimConfig()
	cfg.Warmup = 500
	want := simulate(t, cfg, accs, nil)
	got, err := Simulate(cfg, []TraceSource{rd}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want {
		t.Fatalf("stream replay diverged:\n  stream: %+v\n  slice:  %+v", got[0], want)
	}
}

// TestOpenTraceFile round-trips a counted binary trace through the file
// source, checking Remaining passes through from the counted container:
// the PFT2 magic and a uvarint count before the record bytes the PFT3
// encoder writes after its own magic.
func TestOpenTraceFile(t *testing.T) {
	accs := collectTrace(t, "cc-5", 1000, 2)
	var stream bytes.Buffer
	if err := trace.Encode(&stream, trace.NewSliceSource(accs)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.pft")
	data := append(binary.AppendUvarint([]byte("PFT2"), uint64(len(accs))), stream.Bytes()[4:]...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	tf, err := OpenTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	if n, ok := tf.Remaining(); !ok || n != 1000 {
		t.Fatalf("Remaining = %d,%v; want 1000,true", n, ok)
	}
	got, err := CollectTrace(tf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, accs) {
		t.Fatal("file round trip lost records")
	}
}

// TestStreamReplayBoundedHeap is the constant-memory acceptance pin: a
// 10M-access generated stream — ~320 MB materialized — is encoded through
// a pipe, decoded by trace.Reader, and replayed by the simulator while
// the process allocates only a small constant amount. A slice-path replay
// of the same trace could not pass the allocation bound.
func TestStreamReplayBoundedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a 10M-access stream")
	}
	const n = 10_000_000
	src, err := GenerateTraceSource("cc-5", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	go func() {
		pw.CloseWithError(trace.Encode(pw, src))
	}()
	rd, err := NewTraceReader(pr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScaledSimConfig()
	cfg.Warmup = n / 10

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Simulate(cfg, []TraceSource{rd}, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Cycles == 0 || res[0].IPC <= 0 {
		t.Fatalf("implausible result: %+v", res[0])
	}
	// Cumulative allocation across generate + encode + decode + replay.
	// The materialized trace alone would be 320 MB; the whole streaming
	// pipeline must stay far under that.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
		t.Fatalf("streaming replay allocated %d MB total, want < 64 MB", alloc>>20)
	}
}
