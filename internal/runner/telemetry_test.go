package runner

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"pathfinder/internal/fault"
	"pathfinder/internal/prefetch"
	"pathfinder/internal/telemetry"
)

// TestRunReportTelemetryBlock covers the final structured telemetry block:
// a fresh run and a journal resume must both return a populated
// RunReport.Telemetry, with the resume visible as runner.journal_resumes.
func TestRunReportTelemetryBlock(t *testing.T) {
	reg := telemetry.Enable()
	EnableTelemetry(reg)
	defer func() {
		EnableTelemetry(nil)
		telemetry.Disable()
	}()

	jobs := chaosJobs([]string{"cc-5"})
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	// Fresh run: every cell executes.
	r1 := New(Config{Loads: 1500, Parallelism: 2, Journal: j})
	_, report, err := r1.RunWithReport(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if report.Telemetry == nil {
		t.Fatal("fresh run: RunReport.Telemetry is nil with telemetry enabled")
	}
	if got := report.Telemetry.Counters["runner.jobs"]; got != uint64(len(jobs)) {
		t.Errorf("fresh run: runner.jobs = %d, want %d", got, len(jobs))
	}
	if got := report.Telemetry.Counters["runner.journal_resumes"]; got != 0 {
		t.Errorf("fresh run: runner.journal_resumes = %d, want 0", got)
	}
	wall := report.Telemetry.Histograms["runner.job_wall_ns"]
	if wall.Count != uint64(len(jobs)) {
		t.Errorf("fresh run: runner.job_wall_ns count = %d, want %d", wall.Count, len(jobs))
	}

	// Resumed run: every cell comes from the journal, and the cumulative
	// block reflects both runs.
	r2 := New(Config{Loads: 1500, Parallelism: 2, Journal: j})
	_, report2, err := r2.RunWithReport(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if report2.Resumed != len(jobs) {
		t.Fatalf("second run resumed %d cells, want %d", report2.Resumed, len(jobs))
	}
	if report2.Telemetry == nil {
		t.Fatal("resumed run: RunReport.Telemetry is nil with telemetry enabled")
	}
	if got := report2.Telemetry.Counters["runner.journal_resumes"]; got != uint64(len(jobs)) {
		t.Errorf("resumed run: runner.journal_resumes = %d, want %d", got, len(jobs))
	}
	if got := report2.Telemetry.Counters["runner.jobs"]; got != uint64(2*len(jobs)) {
		t.Errorf("resumed run: cumulative runner.jobs = %d, want %d", got, 2*len(jobs))
	}
}

// TestRunReportTelemetryNilWhenOff pins the zero-overhead default: with no
// registry installed the report carries no telemetry block.
func TestRunReportTelemetryNilWhenOff(t *testing.T) {
	jobs := []Job{{Trace: "cc-5", Label: "BO",
		New: func() (prefetch.Prefetcher, error) { return prefetch.NewBestOffset(), nil }}}
	_, report, err := New(Config{Loads: 1000, Parallelism: 1}).RunWithReport(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if report.Telemetry != nil {
		t.Fatalf("RunReport.Telemetry = %+v, want nil with telemetry disabled", report.Telemetry)
	}
}

// TestEvalSingleFlightTelemetry checks the single-flight counters: two jobs
// on the same trace share one baseline build — one miss, one hit.
func TestEvalSingleFlightTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	EnableTelemetry(reg)
	defer EnableTelemetry(nil)

	jobs := chaosJobs([]string{"cc-5"}) // two prefetchers, one trace
	if _, err := New(Config{Loads: 1500, Parallelism: 1}).Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["runner.baseline_sims"]; got != 1 {
		t.Errorf("runner.baseline_sims = %d, want 1 (shared across the trace's cells)", got)
	}
	misses := snap.Counters["runner.flight_misses"]
	if misses == 0 {
		t.Errorf("runner.flight_misses = 0, want at least the baseline build")
	}
}

// TestCellTelemetrySameOnEveryPath pins that a cell records the same
// runner telemetry whichever entry point evaluates it: a cell that fails
// transiently once and a cell that fails permanently count as two
// terminal cells, one retry and one failure under RunWithReport, under
// EvalCell, and under Run, whose fail-fast abort still records the
// failing cell.
func TestCellTelemetrySameOnEveryPath(t *testing.T) {
	cells := func() []Job {
		calls := 0
		return []Job{
			{Trace: "cc-5", Label: "flaky", New: func() (prefetch.Prefetcher, error) {
				if calls++; calls == 1 {
					return nil, fault.Transient(errors.New("flaky construction"))
				}
				return &prefetch.NextLine{}, nil
			}},
			{Trace: "cc-5", Label: "broken", New: func() (prefetch.Prefetcher, error) {
				return nil, errors.New("broken construction")
			}},
		}
	}
	ctx := context.Background()
	// Each entry point's error is expected (the broken cell fails); only
	// the telemetry it leaves behind is checked.
	for _, tc := range []struct {
		name string
		run  func(r *Runner, jobs []Job)
	}{
		{"RunWithReport", func(r *Runner, jobs []Job) { r.RunWithReport(ctx, jobs) }},
		{"Run", func(r *Runner, jobs []Job) { r.Run(ctx, jobs) }},
		{"EvalCell", func(r *Runner, jobs []Job) {
			for i, job := range jobs {
				r.EvalCell(ctx, i, job)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			EnableTelemetry(reg)
			defer EnableTelemetry(nil)
			// One worker takes the cells in order, so Run aborts only
			// after the flaky cell has completed.
			tc.run(New(Config{Loads: 1000, Parallelism: 1, MaxAttempts: 2, RetryBackoff: time.Millisecond}), cells())
			snap := reg.Snapshot()
			for name, want := range map[string]uint64{
				"runner.jobs": 2, "runner.retries": 1, "runner.job_failures": 1,
			} {
				if got := snap.Counters[name]; got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
		})
	}
}
