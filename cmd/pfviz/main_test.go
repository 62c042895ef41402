package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathfinder"
	"pathfinder/internal/trace"
)

// TestRunTrainAndDump smoke-tests the train-then-dump path on a tiny trace:
// the dump must include every section (inference table, thetas, heatmaps).
func TestRunTrainAndDump(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-trace", "cc-5", "-loads", "3000", "-top", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"trained on cc-5 (3000 loads)",
		"Inference Table",
		"neurons labelled",
		"Adaptive thresholds",
		"Weight heatmaps",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

// TestRunSaveAndReload smoke-tests persistence round-tripping through a temp
// dir: train+save, then dump the saved state without retraining.
func TestRunSaveAndReload(t *testing.T) {
	state := filepath.Join(t.TempDir(), "trained.pfs")
	var buf strings.Builder
	if err := run([]string{"-trace", "cc-5", "-loads", "3000", "-save", state}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "saved prefetcher state to") {
		t.Errorf("no save confirmation in output: %q", buf.String())
	}

	var buf2 strings.Builder
	if err := run([]string{"-state", state}, &buf2); err != nil {
		t.Fatal(err)
	}
	out := buf2.String()
	if strings.Contains(out, "trained on") {
		t.Error("-state path retrained instead of loading")
	}
	if !strings.Contains(out, "Inference Table") {
		t.Errorf("reloaded dump missing the inference table:\n%s", out)
	}
}

// TestRunTraceFile pins -trace-file training: streaming an encoded trace
// file must train the identical prefetcher as generating the benchmark,
// proven by comparing the two dumps verbatim.
func TestRunTraceFile(t *testing.T) {
	src, err := pathfinder.GenerateTraceSource("cc-5", 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	accs, err := pathfinder.CollectTrace(src)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cc5.pft")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Encode(f, trace.NewSliceSource(accs)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var fromFile, fromGen strings.Builder
	if err := run([]string{"-trace-file", path, "-top", "2"}, &fromFile); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-trace", "cc-5", "-loads", "3000", "-top", "2"}, &fromGen); err != nil {
		t.Fatal(err)
	}
	got := strings.ReplaceAll(fromFile.String(), path, "cc-5")
	if got != fromGen.String() {
		t.Error("-trace-file dump differs from generated-trace dump on the same records")
	}
	if !strings.Contains(fromFile.String(), "trained on "+path+" (3000 loads)") {
		t.Errorf("missing streamed-training header:\n%s", fromFile.String())
	}
}

// TestRunBadStateErrors pins the error path for an unreadable state file.
func TestRunBadStateErrors(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-state", filepath.Join(t.TempDir(), "missing.pfs")}, &buf); err == nil {
		t.Fatal("run with a missing -state file succeeded, want an error")
	}
}
