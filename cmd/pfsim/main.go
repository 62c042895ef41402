// Command pfsim runs one benchmark through the two-phase evaluation with a
// chosen prefetcher and prints its metrics.
//
// Usage:
//
//	pfsim -trace cc-5 -prefetcher pathfinder
//	pfsim -trace 605-mcf-s1 -prefetcher pythia -loads 200000
//	pfsim -trace-file my.pft -prefetcher bo
//	tracegen -trace cc-5 -o - | pfsim -trace-file -
//
// Traces are never materialized: generated benchmarks stream from the
// workload generator and trace files stream through the constant-memory
// decoder (any container: PFT2, PFT3, or text). `-trace-file -` reads the
// trace from stdin, spooling it to a temporary file so the evaluation's
// baseline/generation/replay passes can each re-stream it; the evaluation
// is cached under a content digest of the records (see docs/streaming.md).
//
// -prefetcher takes any technique name of the registry, online or
// offline; the names are listed on NewPrefetcherByName in
// internal/serve/eval.go.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"pathfinder"
	"pathfinder/internal/profiling"
	"pathfinder/internal/serve"
	"pathfinder/internal/trace"
)

// stopProfiles flushes any active pprof profiles; fatal routes through it
// so profiles survive error exits.
var stopProfiles = func() {}

// removeSpool deletes the stdin spool file, if any; fatal routes through it
// so `-trace-file -` never leaks a temp file on error exits.
var removeSpool = func() {}

func main() {
	var (
		traceName = flag.String("trace", "cc-5", "benchmark name (see -list)")
		traceFile = flag.String("trace-file", "", "stream a trace file (PFT2/PFT3/text) instead of generating one; - reads stdin")
		pfName    = flag.String("prefetcher", "pathfinder", "prefetcher to evaluate")
		loads     = flag.Int("loads", 100_000, "loads to generate")
		seed      = flag.Int64("seed", 1, "random seed")
		fullSim   = flag.Bool("fullsim", false, "use the full Table 3 hierarchy instead of the trace-scaled one")
		pfOut     = flag.String("prefetch-out", "", "also write the generated prefetch file here (PFP1 format)")
		pfIn      = flag.String("prefetch-in", "", "replay this prefetch file instead of generating one (the artifact's two-step flow)")
		coRunner  = flag.String("corunner", "", "also run this benchmark on a second core sharing the LLC (multi-core mode)")
		retries   = flag.Int("retries", 1, "attempts for the evaluation (transient failures only)")
		timeout   = flag.Duration("job-timeout", 0, "deadline per evaluation attempt (0 = none)")
		journalF  = flag.String("journal", "", "record the completed evaluation to this JSONL journal")
		resume    = flag.Bool("resume", false, "resume from an existing -journal instead of starting fresh")
		list      = flag.Bool("list", false, "list benchmarks and exit")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile here (inspect with `go tool pprof`)")
		memProf   = flag.String("memprofile", "", "write a pprof heap (allocs) profile here at exit")
		metrics   = flag.Bool("metrics", false, "enable telemetry and print the final metric snapshot on stderr")
		metrAddr  = flag.String("metrics-addr", "", "serve live /metrics, /debug/vars and /debug/pprof on this host:port (implies -metrics)")
		metrJSONL = flag.String("metrics-jsonl", "", "stream periodic telemetry snapshots to this JSONL file (implies -metrics)")
	)
	flag.Parse()

	sp, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	stopProfiles = sp
	defer stopProfiles()

	stopMetrics, err := profiling.SetupTelemetry("pfsim", *metrics, *metrAddr, *metrJSONL)
	if err != nil {
		fatal(err)
	}
	defer stopMetrics()

	if *list {
		for _, n := range pathfinder.Workloads() {
			fmt.Println(n)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	trName := traceLabel(flag.CommandLine, *traceName, *traceFile)
	ti, err := resolveTrace(*traceFile, *traceName, *loads, *seed)
	if err != nil {
		fatal(err)
	}
	defer removeSpool()
	if ti.loads == 0 {
		fatal(fmt.Errorf("empty trace"))
	}
	cfg := pathfinder.ScaledSimConfig()
	if *fullSim {
		cfg = pathfinder.DefaultSimConfig()
	}
	cfg.Warmup = ti.loads / 10

	var pfs []pathfinder.PrefetchEntry
	label := *pfName
	if *pfIn != "" {
		f, err := os.Open(*pfIn)
		if err != nil {
			fatal(err)
		}
		pfs, err = trace.ReadPrefetches(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		label = "file:" + *pfIn
	} else {
		var err error
		pfs, label, err = generate(ctx, *pfName, ti.open, *seed)
		if err != nil {
			fatal(err)
		}
	}
	if *pfOut != "" {
		f, err := os.Create(*pfOut)
		if err != nil {
			fatal(err)
		}
		if err := trace.WritePrefetches(f, pfs); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *coRunner != "" {
		// Multi-core mode needs the primary trace twice (solo baseline and
		// shared run) and mutates the co-runner's addresses, so both are
		// materialized; everything else in pfsim streams.
		src, err := ti.open(ctx)
		if err != nil {
			fatal(err)
		}
		accs, err := pathfinder.CollectTrace(src)
		if err != nil {
			fatal(err)
		}
		solo, err := pathfinder.Simulate(cfg, []pathfinder.TraceSource{pathfinder.NewSliceTraceSource(accs)}, nil)
		if err != nil {
			fatal(err)
		}
		base := solo[0]
		coSrc, err := pathfinder.GenerateTraceSource(*coRunner, len(accs), *seed+7)
		if err != nil {
			fatal(err)
		}
		co, err := pathfinder.CollectTrace(coSrc)
		if err != nil {
			fatal(err)
		}
		for i := range co {
			co[i].Addr += 1 << 42 // disjoint address space
		}
		res, err := pathfinder.Simulate(cfg,
			[]pathfinder.TraceSource{pathfinder.NewSliceTraceSource(accs), pathfinder.NewSliceTraceSource(co)},
			[][]pathfinder.PrefetchEntry{pfs, nil})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("trace            %s (%d loads), co-runner %s\n", trName, len(accs), *coRunner)
		fmt.Printf("prefetcher       %s\n", label)
		fmt.Printf("solo   baseline  IPC %.3f\n", base.IPC)
		fmt.Printf("shared IPC       %.3f (accuracy %.3f, coverage vs solo misses %.3f)\n",
			res[0].IPC, res[0].Accuracy(), res[0].Coverage(base.LLCLoadMisses))
		fmt.Printf("co-runner IPC    %.3f\n", res[1].IPC)
		return
	}

	var journal *pathfinder.RunJournal
	if *journalF != "" {
		if !*resume {
			if err := os.Remove(*journalF); err != nil && !os.IsNotExist(err) {
				fatal(err)
			}
		}
		journal, err = pathfinder.OpenJournal(*journalF)
		if err != nil {
			fatal(err)
		}
		defer journal.Close()
	} else if *resume {
		fatal(fmt.Errorf("-resume requires -journal"))
	}

	// The single-benchmark path goes through the evaluation engine: the
	// no-prefetch baseline and the prefetch replay are one EvalJob, and the
	// engine's progress sink reports simulation throughput on stderr.
	r := pathfinder.NewRunner(pathfinder.RunnerConfig{
		Loads: ti.loads, Seed: *seed, Sim: cfg, Parallelism: 1,
		MaxAttempts: *retries, JobTimeout: *timeout, Journal: journal,
		Progress: func(p pathfinder.RunnerProgress) {
			rate := 0.0
			if p.Wall > 0 {
				rate = float64(p.Cycles) / p.Wall.Seconds() / 1e6
			}
			fmt.Fprintf(os.Stderr, "pfsim: %s/%s simulated in %.2fs (%.0f Mcyc/s)\n",
				p.Trace, p.Prefetcher, p.Wall.Seconds(), rate)
		},
	})
	if pfs == nil {
		pfs = []pathfinder.PrefetchEntry{} // an explicitly empty prefetch file
	}
	res, err := r.Eval(ctx, pathfinder.EvalJob{
		Trace: trName, Source: ti.open, SourceKey: ti.key, Label: label, File: pfs,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("trace            %s (%d loads)\n", trName, ti.loads)
	fmt.Printf("prefetcher       %s\n", label)
	fmt.Printf("baseline IPC     %.3f (LLC misses %d)\n", res.BaselineIPC, res.BaselineMisses)
	fmt.Printf("IPC              %.3f (%+.1f%%)\n", res.IPC, 100*(res.IPC/res.BaselineIPC-1))
	fmt.Printf("accuracy         %.3f\n", res.Accuracy)
	fmt.Printf("coverage         %.3f\n", res.Coverage)
	fmt.Printf("issued / useful  %d / %d\n", res.Issued, res.Useful)
}

// traceLabel names the run's trace in its output and its journal cell key:
// the -trace benchmark, or for a -trace-file run the file's path unless
// -trace was set explicitly, so a file's results never appear under the
// flag's default benchmark.
func traceLabel(fs *flag.FlagSet, name, file string) string {
	explicit := false
	fs.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "trace" })
	if file == "" || explicit {
		return name
	}
	return file
}

// traceInput is the evaluation's view of the trace: a known length, a
// cache identity, and a factory that opens a fresh stream over the same
// records for each of the evaluation's replays.
type traceInput struct {
	loads int
	key   string
	open  func(context.Context) (pathfinder.TraceSource, error)
}

// resolveTrace builds the streaming trace input. Generated benchmarks
// stream straight from the workload generator, keyed by their generator
// spec; trace files re-stream from disk, keyed by a content digest pinned
// in one up-front pass (which also fixes the length the warmup is derived
// from). `-trace-file -` first spools stdin to a temporary file so the
// evaluation's baseline/generation/replay passes can each re-open it.
func resolveTrace(file, name string, loads int, seed int64) (traceInput, error) {
	if file == "" {
		return traceInput{
			loads: loads,
			key:   fmt.Sprintf("gen:%s:%d:%d", name, loads, seed),
			open: func(context.Context) (pathfinder.TraceSource, error) {
				return pathfinder.GenerateTraceSource(name, loads, seed)
			},
		}, nil
	}
	if file == "-" {
		spool, err := spoolStdin()
		if err != nil {
			return traceInput{}, err
		}
		file = spool
	}
	hash, n, err := digestTrace(file)
	if err != nil {
		return traceInput{}, err
	}
	return traceInput{
		loads: int(n),
		key:   fmt.Sprintf("pft:%016x:%d", hash, n),
		open: func(context.Context) (pathfinder.TraceSource, error) {
			tf, err := pathfinder.OpenTraceFile(file)
			if err != nil {
				return nil, err
			}
			return fileSource{tf}, nil
		},
	}, nil
}

// spoolStdin copies stdin to a temporary file and arms removeSpool to
// delete it on exit.
func spoolStdin() (string, error) {
	f, err := os.CreateTemp("", "pfsim-stdin-*.pft")
	if err != nil {
		return "", err
	}
	removeSpool = func() { os.Remove(f.Name()) }
	if _, err := io.Copy(f, os.Stdin); err != nil {
		f.Close()
		return "", fmt.Errorf("spooling stdin: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return f.Name(), nil
}

// digestTrace streams the file once through the decoder and returns the
// FNV-1a content hash and record count — the evaluation's cache identity.
func digestTrace(path string) (uint64, uint64, error) {
	tf, err := pathfinder.OpenTraceFile(path)
	if err != nil {
		return 0, 0, err
	}
	defer tf.Close()
	return pathfinder.HashTraceSource(tf)
}

// fileSource closes the underlying trace file once the stream reaches its
// terminal state (EOF or a decode error), so the evaluation's repeated
// re-opens do not leak descriptors.
type fileSource struct{ tf *pathfinder.TraceFile }

func (s fileSource) Next(a *pathfinder.Access) error {
	err := s.tf.Next(a)
	if err != nil {
		s.tf.Close()
	}
	return err
}

func (s fileSource) Remaining() (uint64, bool) { return s.tf.Remaining() }

// generate builds the named technique's prefetch file by streaming the
// trace from a fresh source. The name resolves through the technique
// registry (serve.JobFor); the offline learners collect the records they
// need a full slice of.
func generate(ctx context.Context, name string, open func(context.Context) (pathfinder.TraceSource, error), seed int64) ([]pathfinder.PrefetchEntry, string, error) {
	job, err := serve.JobFor(serve.EvalRequest{Prefetcher: name, Seed: seed})
	if err != nil {
		return nil, "", err
	}
	var p pathfinder.OnlinePrefetcher
	if job.New != nil {
		if p, err = job.New(); err != nil {
			return nil, "", err
		}
	}
	src, err := open(ctx)
	if err != nil {
		return nil, "", err
	}
	if job.GenFile != nil {
		accs, err := pathfinder.CollectTrace(src)
		if err != nil {
			return nil, "", err
		}
		pfs, err := job.GenFile(ctx, accs)
		return pfs, job.Label, err
	}
	label := job.Label
	if label == "" {
		label = p.Name()
	}
	pfs, err := pathfinder.GeneratePrefetchesStream(ctx, p, src, pathfinder.Budget)
	return pfs, label, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pfsim:", err)
	stopProfiles()
	removeSpool()
	os.Exit(1)
}
