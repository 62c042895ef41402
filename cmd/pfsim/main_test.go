package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pathfinder"
	"pathfinder/internal/prefetch"
	"pathfinder/internal/trace"
)

// collectTrace streams the named benchmark from its generator into a
// slice.
func collectTrace(t *testing.T, name string, n int, seed int64) []pathfinder.Access {
	t.Helper()
	src, err := pathfinder.GenerateTraceSource(name, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	accs, err := pathfinder.CollectTrace(src)
	if err != nil {
		t.Fatal(err)
	}
	return accs
}

// TestResolveTraceGenerated pins the generated-benchmark path: the input
// streams from the workload generator and is keyed by its generator spec.
func TestResolveTraceGenerated(t *testing.T) {
	ti, err := resolveTrace("", "cc-5", 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ti.loads != 500 {
		t.Fatalf("loads = %d, want 500", ti.loads)
	}
	if ti.key != "gen:cc-5:500:3" {
		t.Fatalf("key = %q", ti.key)
	}
	src, err := ti.open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := pathfinder.CollectTrace(src)
	if err != nil {
		t.Fatal(err)
	}
	want := collectTrace(t, "cc-5", 500, 3)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("streamed generated trace differs from the generator's records")
	}
}

// TestResolveTraceFile pins the file path: the length and content-digest
// key come from one up-front pass, and open re-streams the same records
// each time it is called.
func TestResolveTraceFile(t *testing.T) {
	want := collectTrace(t, "cc-5", 400, 9)
	path := filepath.Join(t.TempDir(), "cc5.pft")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Encode(f, trace.NewSliceSource(want)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	ti, err := resolveTrace(path, "ignored", 123, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ti.loads != 400 {
		t.Fatalf("loads = %d, want 400", ti.loads)
	}
	if !strings.HasPrefix(ti.key, "pft:") || !strings.HasSuffix(ti.key, ":400") {
		t.Fatalf("key = %q, want pft:<hash>:400", ti.key)
	}
	// The evaluation opens the source several times; each open must yield
	// the identical stream.
	for i := 0; i < 2; i++ {
		src, err := ti.open(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got, err := pathfinder.CollectTrace(src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("open %d: streamed file differs from written records", i)
		}
	}
}

// TestResolveTraceFileMissing pins the error for a nonexistent file.
func TestResolveTraceFileMissing(t *testing.T) {
	if _, err := resolveTrace(filepath.Join(t.TempDir(), "nope.pft"), "", 0, 1); err == nil {
		t.Fatal("want error for missing trace file")
	}
}

// TestGenerateStream pins that the source-factory generate matches the
// slice-based prefetch generation for an online prefetcher.
func TestGenerateStream(t *testing.T) {
	accs := collectTrace(t, "cc-5", 2000, 5)
	open := func(context.Context) (pathfinder.TraceSource, error) {
		return pathfinder.NewSliceTraceSource(accs), nil
	}
	got, label, err := generate(context.Background(), "bo", open, 5)
	if err != nil {
		t.Fatal(err)
	}
	if label != "BO" {
		t.Fatalf("label = %q, want BO", label)
	}
	want, err := pathfinder.GeneratePrefetchesStream(context.Background(), prefetch.NewBestOffset(),
		pathfinder.NewSliceTraceSource(accs), pathfinder.Budget)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("streamed generation differs from slice generation")
	}
}

// TestGenerateRegistryName pins that pfsim resolves technique names
// through the shared registry: pf+nl, which pfsweep grids and pfserved
// accept, builds here too under its registry label.
func TestGenerateRegistryName(t *testing.T) {
	accs := collectTrace(t, "cc-5", 1000, 5)
	open := func(context.Context) (pathfinder.TraceSource, error) {
		return pathfinder.NewSliceTraceSource(accs), nil
	}
	pfs, label, err := generate(context.Background(), "pf+nl", open, 5)
	if err != nil {
		t.Fatal(err)
	}
	if label != "PF+NL" {
		t.Fatalf("label = %q, want PF+NL", label)
	}
	if len(pfs) == 0 {
		t.Fatal("pf+nl generated no prefetches")
	}
}

// TestTraceLabel pins the run's trace label: the -trace benchmark, its
// default when nothing is given, and a -trace-file run's path unless
// -trace names the trace explicitly.
func TestTraceLabel(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "cc-5"},
		{[]string{"-trace", "bfs-10"}, "bfs-10"},
		{[]string{"-trace-file", "runs/mcf.pft"}, "runs/mcf.pft"},
		{[]string{"-trace-file", "-"}, "-"},
		{[]string{"-trace-file", "runs/mcf.pft", "-trace", "605-mcf-s1"}, "605-mcf-s1"},
		{[]string{"-trace", "cc-5", "-trace-file", "runs/mcf.pft"}, "cc-5"},
	} {
		fs := flag.NewFlagSet("pfsim", flag.ContinueOnError)
		name := fs.String("trace", "cc-5", "")
		file := fs.String("trace-file", "", "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if got := traceLabel(fs, *name, *file); got != tc.want {
			t.Errorf("%v: label %q, want %q", tc.args, got, tc.want)
		}
	}
}
