// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run all                 # everything (slow: includes Voyager/Delta-LSTM training)
//	experiments -run fig4 -skip-offline  # the headline comparison, online prefetchers only
//	experiments -run fig5,fig7,table9 -loads 100000
//	experiments -run fig4 -loads 1000000 -fullsim   # paper-scale machine + trace length
//	experiments -run fig4 -par 1         # serial run (bit-identical results)
//
// Experiments: config, table1, table2, table7, table8, table9, fig4 (incl.
// table 6), fig5, fig6, fig7, fig8, fig9.
//
// Grids fan out across GOMAXPROCS workers (override with -par); Ctrl-C
// cancels the run mid-grid. A live progress line is written to stderr when
// it is a terminal (-progress to force it on or off).
//
// Long runs can checkpoint with -journal run.journal and, after a crash or
// Ctrl-C, continue with -journal run.journal -resume: cells already
// journaled are served from disk instead of re-simulated. -retries and
// -job-timeout bound transient failures and hung cells (see
// docs/resilience.md). cmd/pfsweep runs the same grids across machines
// through the distributed sweep engine (see docs/distributed.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"pathfinder"
	"pathfinder/internal/experiments"
	"pathfinder/internal/profiling"
)

// writeJSON stores an experiment's structured result for external plotting.
func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), data, 0o644)
}

// stderrIsTerminal reports whether stderr is a character device, i.e. a
// live terminal rather than a pipe or file.
func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// progressSink renders one in-place progress line per completed grid cell:
// jobs done, the cell just finished, its wall clock and simulation speed.
func progressSink(p experiments.Progress) {
	rate := 0.0
	if p.Wall > 0 {
		rate = float64(p.Cycles) / p.Wall.Seconds() / 1e6
	}
	fmt.Fprintf(os.Stderr, "\r\x1b[K[%3d/%3d] %s/%s %.1fs %.0f Mcyc/s",
		p.Done, p.Total, p.Trace, p.Prefetcher, p.Wall.Seconds(), rate)
	if p.Done == p.Total {
		fmt.Fprintln(os.Stderr)
	}
}

func main() {
	var (
		run         = flag.String("run", "all", "comma-separated experiments to run (all, config, table1, table2, table7, table8, table9, fig4..fig9, extended, noise, interference, degree, seeds, snnsweep, inputs)")
		loads       = flag.Int("loads", 50_000, "loads per benchmark trace (the paper uses 1000000)")
		seed        = flag.Int64("seed", 1, "random seed for traces and learners")
		traces      = flag.String("traces", "", "comma-separated benchmark subset (default: all 11)")
		skipOffline = flag.Bool("skip-offline", false, "skip Delta-LSTM and Voyager (much faster)")
		fullSim     = flag.Bool("fullsim", false, "use the full Table 3 hierarchy instead of the trace-scaled one")
		seeds       = flag.Int("seeds", 3, "seeds for the seed-variance study (-run seeds)")
		par         = flag.Int("par", 0, "evaluation workers (0 = GOMAXPROCS; 1 = serial)")
		retries     = flag.Int("retries", 1, "attempts per evaluation cell (transient failures only)")
		jobTimeout  = flag.Duration("job-timeout", 0, "deadline per evaluation attempt (0 = none)")
		journalPath = flag.String("journal", "", "record completed cells to this JSONL journal")
		resume      = flag.Bool("resume", false, "resume from an existing -journal instead of starting fresh")
		progress    = flag.Bool("progress", stderrIsTerminal(), "render a live progress line on stderr")
		jsonDir     = flag.String("json", "", "also write each experiment's structured result as <dir>/<name>.json")
		list        = flag.Bool("list", false, "list experiments and exit")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile here (inspect with `go tool pprof`)")
		memProfile  = flag.String("memprofile", "", "write a pprof heap (allocs) profile here at exit")
		metrics     = flag.Bool("metrics", false, "enable telemetry and print the final metric snapshot on stderr")
		metrAddr    = flag.String("metrics-addr", "", "serve live /metrics, /debug/vars and /debug/pprof on this host:port (implies -metrics)")
		metrJSONL   = flag.String("metrics-jsonl", "", "stream periodic telemetry snapshots to this JSONL file (implies -metrics)")
	)
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProfiles()

	stopMetrics, err := profiling.SetupTelemetry("experiments", *metrics, *metrAddr, *metrJSONL)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopMetrics()

	if *list {
		for _, e := range [][2]string{
			{"config", "Tables 3/4/5: machine, SNN and workload configuration"},
			{"table1", "1-tick winner vs 32-tick firing neuron match rate"},
			{"table2", "§3.6 SNN learning walkthrough (with Figure 3)"},
			{"table7", "deltas within (−31,31) and (−15,15) per trace"},
			{"table8", "per-1K-access delta vocabulary statistics"},
			{"table9", "SNN area/power across PEs × delta range (+§3.5 tables)"},
			{"fig4", "headline IPC/accuracy/coverage comparison (+Table 6)"},
			{"fig5", "delta-range sensitivity"},
			{"fig6", "neuron count × labels-per-neuron sweep"},
			{"fig7", "1-tick vs 32-tick IPC"},
			{"fig8", "STDP duty-cycling"},
			{"fig9", "variant ladder"},
			{"extended", "[extension] Stride/VLDP/SMS + fixed vs dynamic ensemble"},
			{"noise", "[extension] §2.3 noise tolerance"},
			{"interference", "[extension] §2.3 shared-LLC co-runner (multi-core)"},
			{"degree", "[extension] §3.4 multi-degree mechanisms"},
			{"seeds", "[extension] seed-variance study"},
			{"snnsweep", "[extension] SNN hyper-parameter sensitivity"},
			{"inputs", "[extension] §3.2 input-encoding design space"},
		} {
			fmt.Printf("%-13s %s\n", e[0], e[1])
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := []experiments.Option{
		experiments.WithContext(ctx),
		experiments.WithLoads(*loads),
		experiments.WithSeed(*seed),
		experiments.WithSkipOffline(*skipOffline),
		experiments.WithParallelism(*par),
		experiments.WithRetries(*retries),
		experiments.WithJobTimeout(*jobTimeout),
	}
	if *journalPath != "" {
		// Without -resume a leftover journal would silently replay a previous
		// run's cells, so start it fresh.
		if !*resume {
			if err := os.Remove(*journalPath); err != nil && !os.IsNotExist(err) {
				fmt.Fprintf(os.Stderr, "removing stale journal: %v\n", err)
				os.Exit(1)
			}
		}
		j, err := pathfinder.OpenJournal(*journalPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer j.Close()
		if *resume && j.Completed() > 0 {
			fmt.Fprintf(os.Stderr, "resuming: %d cells already journaled in %s\n", j.Completed(), *journalPath)
		}
		opts = append(opts, experiments.WithJournal(j))
	} else if *resume {
		fmt.Fprintln(os.Stderr, "-resume requires -journal")
		os.Exit(2)
	}
	if *traces != "" {
		opts = append(opts, experiments.WithTraces(strings.Split(*traces, ",")...))
	}
	if *fullSim {
		opts = append(opts, experiments.WithSim(pathfinder.DefaultSimConfig()))
	}
	if *progress {
		opts = append(opts, experiments.WithProgress(progressSink))
	}

	want := make(map[string]bool)
	for _, e := range strings.Split(*run, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	ran := 0
	do := func(name string, f func() (any, error)) {
		if !all && !want[name] {
			return
		}
		ran++
		start := time.Now()
		fmt.Printf("\n===== %s =====\n", name)
		res, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			stopProfiles()
			os.Exit(1)
		}
		fmt.Printf("(%s took %.1fs)\n", name, time.Since(start).Seconds())
		if *jsonDir != "" && res != nil {
			if err := writeJSON(*jsonDir, name, res); err != nil {
				fmt.Fprintf(os.Stderr, "%s: writing json: %v\n", name, err)
				stopProfiles()
				os.Exit(1)
			}
		}
	}

	out := os.Stdout
	do("config", func() (any, error) { experiments.PrintConfig(out, opts...); return nil, nil })
	do("table1", func() (any, error) { return experiments.Table1(out, opts...) })
	do("table2", func() (any, error) { return experiments.Table2(out, *seed) })
	do("table7", func() (any, error) { return experiments.Table7(out, opts...) })
	do("table8", func() (any, error) { return experiments.Table8(out, opts...) })
	do("table9", func() (any, error) { return experiments.Table9(out), nil })
	do("fig4", func() (any, error) { return experiments.Fig4(out, opts...) })
	do("fig5", func() (any, error) { return experiments.Fig5(out, opts...) })
	do("fig6", func() (any, error) { return experiments.Fig6(out, opts...) })
	do("fig7", func() (any, error) { return experiments.Fig7(out, opts...) })
	do("fig8", func() (any, error) { return experiments.Fig8(out, opts...) })
	do("fig9", func() (any, error) { return experiments.Fig9(out, opts...) })
	do("extended", func() (any, error) { return experiments.Extended(out, opts...) })
	do("noise", func() (any, error) { return experiments.NoiseTolerance(out, opts...) })
	do("interference", func() (any, error) { return experiments.Interference(out, opts...) })
	do("degree", func() (any, error) { return experiments.Degree(out, opts...) })
	do("seeds", func() (any, error) { return experiments.SeedStudy(out, *seeds, opts...) })
	do("snnsweep", func() (any, error) { return experiments.SNNSensitivity(out, opts...) })
	do("inputs", func() (any, error) { return experiments.InputEncodings(out, opts...) })

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment(s) %q; see -h\n", *run)
		os.Exit(2)
	}
}
