package runner

import (
	"bytes"
	"context"
	"encoding/binary"
	"strings"
	"testing"

	"pathfinder/internal/prefetch"
	"pathfinder/internal/trace"
	"pathfinder/internal/workload"
)

// sourceFactory encodes accs into the counted binary container once and
// returns a Job.Source factory that decodes a fresh stream per call —
// the shape a file-backed streaming job has in practice. The counted
// container is the PFT2 magic and a uvarint count before the record
// bytes the PFT3 encoder writes after its own magic.
func sourceFactory(t testing.TB, accs []trace.Access) func(context.Context) (trace.Source, error) {
	t.Helper()
	var stream bytes.Buffer
	if err := trace.Encode(&stream, trace.NewSliceSource(accs)); err != nil {
		t.Fatal(err)
	}
	data := append(binary.AppendUvarint([]byte("PFT2"), uint64(len(accs))), stream.Bytes()[4:]...)
	return func(context.Context) (trace.Source, error) {
		return trace.NewReader(bytes.NewReader(data))
	}
}

// TestSourceJobMatchesSliceJob is the runner-level streaming parity test:
// the same records evaluated once as a materialized Accs job and once as
// a Source job must produce bit-identical metrics — same warmup default
// (the counted container knows its length), same baseline, same replay.
func TestSourceJobMatchesSliceJob(t *testing.T) {
	accs, err := workload.Generate("cc-5", 4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	newPF := func() (prefetch.Prefetcher, error) { return prefetch.NewBestOffset(), nil }

	slice, err := New(Config{}).Eval(context.Background(), Job{
		Trace: "cc-5", Accs: accs, New: newPF,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := New(Config{}).Eval(context.Background(), Job{
		Trace: "cc-5", Source: sourceFactory(t, accs), SourceKey: "cc-5#7", New: newPF,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stream.Metrics != slice.Metrics {
		t.Fatalf("metrics diverge:\n  stream: %+v\n  slice:  %+v", stream.Metrics, slice.Metrics)
	}
	if stream.BaselineIPC != slice.BaselineIPC || stream.Cycles != slice.Cycles {
		t.Fatalf("baseline/cycles diverge: %v/%d vs %v/%d",
			stream.BaselineIPC, stream.Cycles, slice.BaselineIPC, slice.Cycles)
	}
}

// TestSourceJobBaselineShared checks a grid of Source jobs with the same
// SourceKey runs the no-prefetch baseline exactly once, like name-keyed
// slice jobs do.
func TestSourceJobBaselineShared(t *testing.T) {
	accs, err := workload.Generate("cc-5", 3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	factory := sourceFactory(t, accs)
	var jobs []Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, Job{
			Trace: "cc-5", Source: factory, SourceKey: "cc-5#3",
			Label: "BO",
			New:   func() (prefetch.Prefetcher, error) { return prefetch.NewBestOffset(), nil },
		})
	}
	r := New(Config{Parallelism: 4})
	results, err := r.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.BaselineSims(); n != 1 {
		t.Fatalf("BaselineSims = %d, want 1 (shared by SourceKey)", n)
	}
	for i := 1; i < len(results); i++ {
		if results[i].Metrics != results[0].Metrics {
			t.Fatalf("job %d metrics diverge from job 0", i)
		}
	}
}

// TestSourceJobUnknownLengthWarmup pins the length-unknown stream
// contract: with no trace length to take 10% of and no explicit warmup,
// the job fails loudly instead of silently measuring from record 0; with
// warmup pinned it matches the equivalent slice job bit for bit; and a
// completed full replay memoizes the length under the SourceKey, after
// which an unconfigured job resolves the same 10% default as a slice job.
func TestSourceJobUnknownLengthWarmup(t *testing.T) {
	accs, err := workload.Generate("cc-5", 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Re-encode through the unbounded container so Remaining is unknown.
	var buf bytes.Buffer
	if err := trace.Encode(&buf, trace.NewSliceSource(accs)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	source := func(context.Context) (trace.Source, error) {
		return trace.NewReader(bytes.NewReader(data))
	}
	newPF := func() (prefetch.Prefetcher, error) { return prefetch.NewBestOffset(), nil }

	// No length, no explicit warmup, no memo: loud positioned error, not
	// a silent zero-warmup run.
	r := New(Config{})
	_, err = r.Eval(context.Background(), Job{
		Trace: "cc-5", SourceKey: "cc-5#5", Source: source, New: newPF,
	})
	if err == nil {
		t.Fatal("unknown-length stream with defaulted warmup should fail loudly")
	}
	if !strings.Contains(err.Error(), "warmup") || !strings.Contains(err.Error(), "Job.Warmup") {
		t.Fatalf("error should explain the warmup divergence and the remedy, got: %v", err)
	}

	// Explicit warmup-off runs, and matches the warmup-off slice job.
	stream, err := r.Eval(context.Background(), Job{
		Trace: "cc-5", SourceKey: "cc-5#5", Source: source, Warmup: -1, New: newPF,
	})
	if err != nil {
		t.Fatal(err)
	}
	slice, err := New(Config{}).Eval(context.Background(), Job{
		Trace: "cc-5", Accs: accs, Warmup: -1, New: newPF,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stream.Metrics != slice.Metrics {
		t.Fatalf("warmup-off parity broken:\n  stream: %+v\n  slice:  %+v", stream.Metrics, slice.Metrics)
	}

	// That replay taught the runner the trace length: the previously
	// failing unconfigured job now resolves the standard 10% default and
	// lands bit-identical to the unconfigured slice job.
	stream, err = r.Eval(context.Background(), Job{
		Trace: "cc-5", SourceKey: "cc-5#5", Source: source, New: newPF,
	})
	if err != nil {
		t.Fatalf("memoized length should resolve the warmup default: %v", err)
	}
	slice, err = New(Config{}).Eval(context.Background(), Job{
		Trace: "cc-5", Accs: accs, New: newPF,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stream.Metrics != slice.Metrics {
		t.Fatalf("memoized-warmup parity broken:\n  stream: %+v\n  slice:  %+v", stream.Metrics, slice.Metrics)
	}
}

// TestSourceJobGenFile checks the offline-generator path still works for
// Source jobs: the stream is collected for the generator's slice
// signature and the result matches the equivalent Accs job.
func TestSourceJobGenFile(t *testing.T) {
	accs, err := workload.Generate("cc-5", 2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	gen := func(ctx context.Context, accs []trace.Access) ([]trace.Prefetch, error) {
		return prefetch.GenerateFileCtx(ctx, &prefetch.NextLine{}, accs, 2)
	}
	slice, err := New(Config{}).Eval(context.Background(), Job{
		Trace: "cc-5", Accs: accs, GenFile: gen, Label: "gen",
	})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := New(Config{}).Eval(context.Background(), Job{
		Trace: "cc-5", Source: sourceFactory(t, accs), SourceKey: "cc-5#9",
		GenFile: gen, Label: "gen",
	})
	if err != nil {
		t.Fatal(err)
	}
	if stream.Metrics != slice.Metrics {
		t.Fatalf("GenFile metrics diverge:\n  stream: %+v\n  slice:  %+v", stream.Metrics, slice.Metrics)
	}
}

// TestSourceJobEmptyTrace checks a zero-length counted source is rejected
// with the slice path's error.
func TestSourceJobEmptyTrace(t *testing.T) {
	_, err := New(Config{}).Eval(context.Background(), Job{
		Trace: "empty", Source: sourceFactory(t, nil), SourceKey: "empty",
		New: func() (prefetch.Prefetcher, error) { return prefetch.NewBestOffset(), nil },
	})
	if err == nil || !strings.Contains(err.Error(), "empty trace") {
		t.Fatalf("err = %v, want an empty-trace error", err)
	}
}

// TestSourceJobCellKey pins journal-key compatibility: jobs without a
// SourceKey keep the exact pre-streaming key shape, and the SourceKey is
// appended for Source jobs.
func TestSourceJobCellKey(t *testing.T) {
	r := New(Config{Loads: 1000, Seed: 2})
	legacy := r.cellKey(3, Job{Trace: "cc-5", Label: "BO"})
	if legacy != "3|cc-5|BO|1000|2" {
		t.Fatalf("legacy cell key changed: %q", legacy)
	}
	keyed := r.cellKey(3, Job{Trace: "cc-5", Label: "BO", SourceKey: "sha:abc"})
	if keyed != "3|cc-5|BO|1000|2|sha:abc" {
		t.Fatalf("source cell key = %q", keyed)
	}
}
