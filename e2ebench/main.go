// Command e2ebench is the repository's end-to-end benchmark. It runs four
// workloads that each stress a different set of layers (see README.md):
//
//	grid-snn       the Fig. 4 SNN lineup through runner.Runner.Run
//	grid-tables    nine table prefetchers on the Table 5 suite through dist.RunLocal
//	stream-replay  one million-plus-load PFT3 stream on the full Table 3 machine
//	serve-open     an in-process serve.Server fed by an open-loop tick schedule
//
// An untraced run (-trace 0) prints the end-to-end metrics; a traced run
// (-trace 1) replays the workload stage by stage with spans and telemetry
// and prints the per-layer metrics. Every run checks its outputs. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage:
//
//	e2ebench -workload grid-snn -seed 1 -seconds 20 -trace 0
//	e2ebench -workload all -seed 1 -seconds 20
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, fullSizes))
}

// metric is one reported value with its unit, as it appears in the JSON
// result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload run produces.
type outcome struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]metric
	// lines are human-readable report lines printed before the JSON.
	lines []string
	// problems lists every failed check, one line each.
	problems []string
}

func newOutcome() *outcome {
	return &outcome{correct: true, metrics: make(map[string]metric)}
}

func (o *outcome) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("e2ebench: metric " + name + " has no unit")
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) printf(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// fail records a failed check; the run is then not correct.
func (o *outcome) fail(format string, args ...any) {
	o.correct = false
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// options are the settings of one workload run.
type options struct {
	seed     int64 // as given on the command line (echoed)
	wseed    int64 // the workload seed derived from it (never zero)
	budget   time.Duration
	traced   bool
	spansDir string
	size     sizes
}

// workloads are the benchmark's workloads, in the order "-workload all"
// runs them.
var workloads = []struct {
	name string
	run  func(ctx context.Context, o options) *outcome
}{
	{"grid-snn", runGridSNN},
	{"grid-tables", runGridTables},
	{"stream-replay", runStreamReplay},
	{"serve-open", runServeOpen},
}

func run(args []string, stdout, stderr io.Writer, size sizes) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: grid-snn, grid-tables, stream-replay, serve-open or all")
	seed := fs.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := fs.Int("seconds", 20, "length of the measured phase in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	spansDir := fs.String("spans-dir", "", "directory the traced run writes its spans to (default: not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "e2ebench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	var names []string
	runs := map[string]func(context.Context, options) *outcome{}
	for _, w := range workloads {
		names = append(names, w.name)
		runs[w.name] = w.run
	}
	if *name != "all" {
		if runs[*name] == nil {
			fmt.Fprintf(stderr, "e2ebench: unknown workload %q (want one of %v or all)\n", *name, names)
			return 2
		}
		names = []string{*name}
	}
	o := options{
		seed:     *seed,
		wseed:    deriveSeed(*seed),
		budget:   time.Duration(*seconds) * time.Second,
		traced:   *traced == 1,
		spansDir: *spansDir,
		size:     size,
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		out := runs[n](context.Background(), o)
		report(stdout, n, o, out)
		total.Correct = total.Correct && out.correct
		total.Attempted += out.attempted
		total.Failed += out.failed
		for k, v := range out.metrics {
			if len(names) > 1 {
				k = n + "." + k
			}
			total.Metrics[k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// deriveSeed maps the command-line seed to a non-zero workload seed, so
// that seed 0 does not fall back to the generators' defaults.
func deriveSeed(seed int64) int64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x>>2) | 1
}

func report(w io.Writer, name string, o options, out *outcome) {
	mode := "untraced"
	if o.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed=%d (workload seed %d)  %s  budget=%s\n", name, o.seed, o.wseed, mode, o.budget)
	for _, l := range out.lines {
		fmt.Fprintln(w, "  "+l)
	}
	keys := make([]string, 0, len(out.metrics))
	for k := range out.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := out.metrics[k]
		fmt.Fprintf(w, "  metric %-34s %14.6g %s\n", k, m.Value, m.Unit)
	}
	failFrac := 0.0
	if out.attempted > 0 {
		failFrac = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(w, "  fail_frac %.6g frac (%d failed of %d attempted)\n", failFrac, out.failed, out.attempted)
	for _, p := range out.problems {
		fmt.Fprintln(w, "  CHECK FAILED: "+p)
	}
	fmt.Fprintf(w, "  checks: %s\n", map[bool]string{true: "all passed", false: "FAILED"}[out.correct])
}
