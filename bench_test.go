package pathfinder

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark runs the corresponding experiment at a
// reduced trace length so `go test -bench=.` finishes in minutes; run
// cmd/experiments with -loads 1000000 for paper-scale numbers. Per-run
// metrics are attached with b.ReportMetric so `-benchmem` output carries
// the reproduced values, not just wall time.
//
// Harness notes: benchmarks pin WithParallelism(1) so wall-clock numbers
// measure the simulator, not the worker pool's scheduling. The verify flow
// also runs `go vet ./...` and the race target
// (`go test -race ./internal/runner/... ./internal/experiments/...`, or
// `make race`) to keep the parallel engine honest.

import (
	"context"
	"io"
	"testing"

	"pathfinder/internal/experiments"
	"pathfinder/internal/prefetch"
)

// benchOpts are the reduced-scale settings used by every benchmark.
func benchOpts(extra ...experiments.Option) []experiments.Option {
	return append([]experiments.Option{
		experiments.WithLoads(20_000),
		experiments.WithSeed(1),
		experiments.WithSim(ScaledSimConfig()),
		experiments.WithSkipOffline(true),
		experiments.WithParallelism(1),
	}, extra...)
}

// fastTraces is a representative 4-trace subset covering the pattern
// classes: delta-rich GAP, strided SPEC, irregular SPEC17, temporal SPEC06.
var fastTraces = []string{"cc-5", "bfs-10", "605-mcf-s1", "471-omnetpp-s1"}

// BenchmarkSimulate measures the end-to-end per-access cost of the
// PATHFINDER pipeline — advise (SNN query per miss), prefetch generation
// and the two-phase cache simulation — the macro companion to
// internal/snn's BenchmarkPresent micro-benchmarks (see
// docs/performance.md). Run by `make bench-micro` into BENCH_snn.json.
func BenchmarkSimulate(b *testing.B) {
	accs := collectTrace(b, "cc-5", 20_000, 1)
	cfg := ScaledSimConfig()
	cfg.Warmup = len(accs) / 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pf, err := New(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		simulate(b, cfg, accs, generatePrefetches(b, pf, accs))
	}
}

func BenchmarkTable1OneTickMatch(b *testing.B) {
	opts := benchOpts(experiments.WithTraces("cc-5"))
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(io.Discard, opts...)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rows[0].MatchRate, "%match")
	}
}

func BenchmarkTable2Walkthrough(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(io.Discard, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].FiringTick), "first-fire-tick")
	}
}

// benchFig4Metric runs the Figure 4 lineup and reports one prefetcher's
// mean metric.
func benchFig4(b *testing.B, metric func(experiments.Fig4Result) float64, unit string) {
	b.Helper()
	opts := benchOpts(experiments.WithTraces(fastTraces...))
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(io.Discard, opts...)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(metric(res), unit)
	}
}

func BenchmarkFig4aIPC(b *testing.B) {
	benchFig4(b, func(r experiments.Fig4Result) float64 { return r.MeanIPC("Pathfinder") }, "PF-IPC")
}

func BenchmarkFig4bAccuracy(b *testing.B) {
	benchFig4(b, func(r experiments.Fig4Result) float64 {
		sum, n := 0.0, 0
		for _, row := range r.Rows {
			sum += row["Pathfinder"].Accuracy
			n++
		}
		return sum / float64(n)
	}, "PF-accuracy")
}

func BenchmarkFig4cCoverage(b *testing.B) {
	benchFig4(b, func(r experiments.Fig4Result) float64 {
		sum, n := 0.0, 0
		for _, row := range r.Rows {
			sum += row["Pathfinder"].Coverage
			n++
		}
		return sum / float64(n)
	}, "PF-coverage")
}

func BenchmarkTable6IssuedPrefetches(b *testing.B) {
	opts := benchOpts(experiments.WithTraces("cc-5"))
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(io.Discard, opts...)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Rows["cc-5"]["Pathfinder"].Issued), "PF-issued")
		b.ReportMetric(float64(res.Rows["cc-5"]["Pythia"].Issued), "Pythia-issued")
		b.ReportMetric(float64(res.Rows["cc-5"]["SPP"].Issued), "SPP-issued")
	}
}

func BenchmarkFig5DeltaRange(b *testing.B) {
	opts := benchOpts(experiments.WithTraces("cc-5", "623-xalan-s1"))
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(io.Discard, opts...)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanIPC("range 127"), "IPC-d127")
		b.ReportMetric(res.MeanIPC("range 31"), "IPC-d31")
	}
}

func BenchmarkTable7DeltaRanges(b *testing.B) {
	opts := benchOpts(experiments.WithTraces(fastTraces...))
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table7(io.Discard, opts...)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].Within31), "cc5-in31")
	}
}

func BenchmarkFig6Neurons(b *testing.B) {
	opts := benchOpts(experiments.WithLoads(10_000), experiments.WithTraces("cc-5"))
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(io.Discard, opts...)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanIPC("50n/2l"), "IPC-50n2l")
		b.ReportMetric(res.MeanIPC("10n/1l"), "IPC-10n1l")
	}
}

func BenchmarkTable8DeltaStats(b *testing.B) {
	opts := benchOpts(experiments.WithTraces(fastTraces...))
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table8(io.Discard, opts...)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].AvgDeltas, "cc5-deltas/1K")
	}
}

func BenchmarkFig7OneTick(b *testing.B) {
	opts := benchOpts(experiments.WithTraces("cc-5", "bfs-10"))
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(io.Discard, opts...)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanIPC("1-tick"), "IPC-1tick")
		b.ReportMetric(res.MeanIPC("32-tick"), "IPC-32tick")
	}
}

func BenchmarkFig8DutyCycle(b *testing.B) {
	opts := benchOpts(experiments.WithLoads(10_000), experiments.WithTraces("cc-5"))
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(io.Discard, opts...)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanIPC("always"), "IPC-always")
		b.ReportMetric(res.MeanIPC("first 50"), "IPC-first50")
	}
}

func BenchmarkFig9Variants(b *testing.B) {
	opts := benchOpts(experiments.WithLoads(10_000), experiments.WithTraces("cc-5"))
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(io.Discard, opts...)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanIPC("basic-1l"), "IPC-basic")
		b.ReportMetric(res.MeanIPC("reorder-2l-1tick"), "IPC-best")
	}
}

func BenchmarkTable9HWCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table9(io.Discard)
		b.ReportMetric(rows[0].Cost.AreaMM2, "mm2-50pe-d127")
	}
}

// BenchmarkAblationTwoPhaseVsInline quantifies the two-phase design choice
// called out in DESIGN.md: generating the prefetch file first and then
// replaying (as the competition fork does) versus interleaving advice and
// simulation, which would let timing feedback perturb learning. We measure
// the generation phase alone to show it is the cheap part.
func BenchmarkAblationTwoPhaseVsInline(b *testing.B) {
	accs := collectTrace(b, "cc-5", 20_000, 1)
	b.Run("generate-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pf, err := New(DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			generatePrefetches(b, pf, accs)
		}
	})
	b.Run("generate-and-simulate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pf, err := New(DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			simulate(b, ScaledSimConfig(), accs, generatePrefetches(b, pf, accs))
		}
	})
}

// BenchmarkAblationOneTickSpeed quantifies the §3.4 "Lowering Time
// Interval" design choice as an engine-level speedup.
func BenchmarkAblationOneTickSpeed(b *testing.B) {
	accs := collectTrace(b, "cc-5", 10_000, 1)
	run := func(b *testing.B, oneTick bool) {
		for i := 0; i < b.N; i++ {
			cfg := DefaultConfig()
			cfg.OneTick = oneTick
			pf, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			generatePrefetches(b, pf, accs)
		}
	}
	b.Run("32-tick", func(b *testing.B) { run(b, false) })
	b.Run("1-tick", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationLLCReplacement compares LRU against SRRIP with
// prefetch-aware insertion at the LLC, under an aggressive (low-accuracy)
// prefetcher: SRRIP should limit pollution.
func BenchmarkAblationLLCReplacement(b *testing.B) {
	accs := collectTrace(b, "cc-5", 20_000, 1)
	pfs := generatePrefetches(b, &prefetch.NextLine{}, accs)
	run := func(b *testing.B, cfg SimConfig) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(simulate(b, cfg, accs, pfs).IPC, "IPC")
		}
	}
	b.Run("LRU", func(b *testing.B) { run(b, ScaledSimConfig()) })
	b.Run("SRRIP", func(b *testing.B) {
		cfg := ScaledSimConfig()
		cfg.LLCPolicy = PolicySRRIP
		run(b, cfg)
	})
}

// BenchmarkExtensionColdPageEnsemble measures the future-work cold-page
// predictor's contribution when ensembled with PATHFINDER.
func BenchmarkExtensionColdPageEnsemble(b *testing.B) {
	accs := collectTrace(b, "bfs-10", 20_000, 1)
	cfg := ScaledSimConfig()
	cfg.Warmup = len(accs) / 10
	base := simulate(b, cfg, accs, nil)
	run := func(b *testing.B, withNP bool) {
		for i := 0; i < b.N; i++ {
			pf, err := New(DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			var p OnlinePrefetcher = pf
			if withNP {
				p = NewEnsemble("PF+NP", pf, prefetch.NewNextPage())
			}
			m, err := Eval(context.Background(), EvalJob{
				Prefetcher: p, Accs: accs, Sim: &cfg, Baseline: &base.LLCLoadMisses,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(m.Coverage, "coverage")
		}
	}
	b.Run("PF-only", func(b *testing.B) { run(b, false) })
	b.Run("PF+NextPage", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationSTDPRule compares the additive (BindsNet PostPre) STDP
// rule against the multiplicative weight-dependent variant.
func BenchmarkAblationSTDPRule(b *testing.B) {
	accs := collectTrace(b, "cc-5", 15_000, 1)
	cfg := ScaledSimConfig()
	cfg.Warmup = len(accs) / 10
	base := simulate(b, cfg, accs, nil)
	run := func(b *testing.B, weightDependent bool) {
		for i := 0; i < b.N; i++ {
			pcfg := DefaultConfig()
			pcfg.WeightDependentSTDP = weightDependent
			pf, err := New(pcfg)
			if err != nil {
				b.Fatal(err)
			}
			m, err := Eval(context.Background(), EvalJob{
				Prefetcher: pf, Accs: accs, Sim: &cfg, Baseline: &base.LLCLoadMisses,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(m.Accuracy, "accuracy")
			b.ReportMetric(m.Coverage, "coverage")
		}
	}
	b.Run("additive", func(b *testing.B) { run(b, false) })
	b.Run("weight-dependent", func(b *testing.B) { run(b, true) })
}
