package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pathfinder"
	"pathfinder/internal/trace"
)

// TestRunSingleTrace smoke-tests the single-benchmark path end to end: the
// written file must be a valid PFT2 trace with exactly the requested loads.
// readTrace decodes a binary trace container into a slice.
func readTrace(r io.Reader) ([]trace.Access, error) {
	rd, err := trace.NewReader(r)
	if err != nil {
		return nil, err
	}
	return trace.Collect(rd)
}

func TestRunSingleTrace(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "cc5.pft")
	var buf strings.Builder
	if err := run([]string{"-trace", "cc-5", "-loads", "500", "-o", out, "-stats"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cc-5: 500 loads") {
		t.Errorf("stdout missing summary line: %q", buf.String())
	}
	if !strings.Contains(buf.String(), "deltas") {
		t.Errorf("-stats printed no delta statistics: %q", buf.String())
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	accs, err := readTrace(f)
	if err != nil {
		t.Fatalf("written file is not a readable trace: %v", err)
	}
	if len(accs) != 500 {
		t.Errorf("trace holds %d loads, want 500", len(accs))
	}
}

// TestRunAll smoke-tests -all into a temp dir: one valid file per benchmark.
func TestRunAll(t *testing.T) {
	dir := t.TempDir()
	var buf strings.Builder
	if err := run([]string{"-all", "-loads", "200", "-dir", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.pft"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("-all wrote no trace files")
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		accs, err := readTrace(f)
		f.Close()
		if err != nil {
			t.Errorf("%s: unreadable: %v", filepath.Base(path), err)
			continue
		}
		if len(accs) != 200 {
			t.Errorf("%s: %d loads, want 200", filepath.Base(path), len(accs))
		}
	}
}

// TestRunNoArgsErrors pins the usage error instead of a silent no-op.
func TestRunNoArgsErrors(t *testing.T) {
	var buf strings.Builder
	if err := run(nil, &buf); err == nil {
		t.Fatal("run with no -trace/-all succeeded, want an error")
	}
}

// TestRunStdout pins the `-o -` piping mode: the binary stream goes to
// stdout and must decode to exactly the records a file run would write.
func TestRunStdout(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-trace", "cc-5", "-loads", "300", "-o", "-"}, &out); err != nil {
		t.Fatal(err)
	}
	accs, err := readTrace(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("stdout is not a decodable trace stream: %v", err)
	}
	src, err := pathfinder.GenerateTraceSource("cc-5", 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pathfinder.CollectTrace(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(accs, want) {
		t.Fatal("piped trace differs from the generated records")
	}
}
