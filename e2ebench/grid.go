package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"pathfinder/internal/core"
	"pathfinder/internal/dist"
	"pathfinder/internal/prefetch"
	"pathfinder/internal/runner"
	"pathfinder/internal/serve"
	"pathfinder/internal/sim"
	"pathfinder/internal/trace"
	"pathfinder/internal/workload"
)

// snnLineup is the Fig. 4 SNN lineup; tableLineup is the grid-tables one.
// ISB is left out of the tables: its eviction scans every mapping and
// would dominate the grid (see README.md).
var (
	snnLineup   = []string{"Pathfinder", "PF+NL", "PF+NL+SISB"}
	tableLineup = append([]string{"NoPF"}, tablePrefetchers...)
)

// gridBench is one (trace × prefetcher) grid and the path it runs on:
// runner.Runner.Run (the cmd/experiments path) or dist.RunLocal with one
// worker (the pfsweep path).
type gridBench struct {
	specs   []dist.CellSpec
	jobs    []runner.Job
	traces  []string
	viaDist bool
	loads   int
	seed    int64
}

func newGridBench(traces, lineup []string, loads int, seed int64, viaDist bool) (*gridBench, error) {
	specs := dist.GridSpec{Traces: traces, Prefetchers: lineup, Seeds: []int64{seed}, Loads: loads}.Expand()
	jobs, err := dist.Jobs(specs)
	if err != nil {
		return nil, err
	}
	return &gridBench{specs: specs, jobs: jobs, traces: traces, viaDist: viaDist, loads: loads, seed: seed}, nil
}

// gridPass is one run of the whole grid.
type gridPass struct {
	res  []runner.Result
	wall time.Duration
	// baselineSims is the runner's baseline simulation count, -1 when the
	// path does not expose its runner (dist.RunLocal).
	baselineSims int64
}

// pass runs the grid once with fresh caches, so every pass does the same
// work.
func (g *gridBench) pass(ctx context.Context) (gridPass, error) {
	t0 := time.Now()
	if g.viaDist {
		res, rep, err := dist.RunLocal(ctx, runner.Config{Parallelism: 1}, g.jobs, 1)
		if err != nil {
			return gridPass{}, err
		}
		if len(rep.Failed) > 0 {
			return gridPass{}, fmt.Errorf("%d cells failed, first: %v", len(rep.Failed), rep.Failed[0])
		}
		return gridPass{res: res, wall: time.Since(t0), baselineSims: -1}, nil
	}
	r := runner.New(runner.Config{Parallelism: 1})
	res, err := r.Run(ctx, g.jobs)
	if err != nil {
		return gridPass{}, err
	}
	return gridPass{res: res, wall: time.Since(t0), baselineSims: r.BaselineSims()}, nil
}

// cellOut is a cell's simulated outcome, compared bit for bit between the
// production path and the stage-by-stage replay.
type cellOut struct {
	runner.Metrics
	BaselineIPC float64
	Cycles      uint64
}

func outOf(r runner.Result) cellOut {
	return cellOut{Metrics: r.Metrics, BaselineIPC: r.BaselineIPC, Cycles: r.Cycles}
}

// replayProfile collects what the traced replay measures besides spans.
type replayProfile struct {
	tr     *tracer
	timers []*adviseTimer
	// sims sums the prefetch-run simulator counts; simAccesses counts the
	// accesses both simulator stages replayed.
	sims        sim.Result
	simAccesses int64
	// genNs and genAccs are each table prefetcher's generate time and
	// accesses.
	genNs, genAccs map[string]int64
}

func newReplayProfile() *replayProfile {
	return &replayProfile{tr: newTracer(), genNs: map[string]int64{}, genAccs: map[string]int64{}}
}

// newPrefetcher builds a cell's prefetcher. Traced, PATHFINDER is built
// here around an adviseTimer (returned too) in the same shape the wire
// registry builds it; untraced, and for every other technique, it comes
// from the registry itself.
func newPrefetcher(spec dist.CellSpec, traced bool) (prefetch.Prefetcher, *adviseTimer, error) {
	name := strings.ToLower(spec.Prefetcher)
	if !traced || (name != "pathfinder" && name != "pf+nl" && name != "pf+nl+sisb") {
		p, err := serve.NewPrefetcherByName(spec.Prefetcher, spec.Seed)
		return p, nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = spec.Seed
	pf, err := core.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	t := &adviseTimer{pf: pf}
	ensemble := func(label string, members ...prefetch.Prefetcher) prefetch.Prefetcher {
		e := prefetch.NewEnsemble(members...)
		e.Label = label
		return e
	}
	switch name {
	case "pf+nl":
		return ensemble("PF+NL", t, &prefetch.NextLine{}), t, nil
	case "pf+nl+sisb":
		return ensemble("PF+NL+SISB", t, prefetch.NewSISB(), &prefetch.NextLine{}), t, nil
	}
	return t, t, nil
}

// replay evaluates every cell stage by stage in the runner's order —
// trace generation and the baseline once per trace, then per cell the
// prefetch file and the timed replay — calling each layer's public
// functions directly. With prof set, each stage is a span.
func (g *gridBench) replay(ctx context.Context, prof *replayProfile) ([]cellOut, error) {
	var tr *tracer
	if prof != nil {
		tr = prof.tr
	}
	type base struct {
		accs   []trace.Access
		ipc    float64
		misses uint64
	}
	bases := map[string]*base{}
	cfg := sim.ScaledConfig()
	outs := make([]cellOut, 0, len(g.specs))
	for i, spec := range g.specs {
		cell := tr.begin("bench.cell", -1, int64(i))
		b := bases[spec.Trace]
		if b == nil {
			sp := tr.begin("workload.generate", cell, int64(i))
			accs, err := workload.GenerateCtx(ctx, spec.Trace, g.loads, g.seed)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			cfg.Warmup = len(accs) / 10
			sp = tr.begin("sim.baseline", cell, int64(i))
			eng, release := sim.AcquireEngine(cfg)
			res, err := eng.RunCtx(ctx, accs, nil)
			release()
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			b = &base{accs: accs, ipc: res.IPC, misses: res.LLCLoadMisses}
			bases[spec.Trace] = b
			if prof != nil {
				prof.simAccesses += int64(len(accs))
			}
		}
		cfg.Warmup = len(b.accs) / 10
		p, timer, err := newPrefetcher(spec, prof != nil)
		if err != nil {
			return nil, err
		}
		sp := tr.begin("prefetch.generate", cell, int64(i))
		pfs, err := prefetch.GenerateFileCtx(ctx, p, b.accs, prefetch.Budget)
		d := tr.end(sp)
		if err != nil {
			return nil, err
		}
		switch {
		case timer != nil:
			prof.timers = append(prof.timers, timer)
			tr.addNested(sp, "core", timer.takeSum())
		case prof != nil:
			prof.genNs[p.Name()] += int64(d)
			prof.genAccs[p.Name()] += int64(len(b.accs))
		}
		sp = tr.begin("sim.replay", cell, int64(i))
		eng, release := sim.AcquireEngine(cfg)
		res, err := eng.RunCtx(ctx, b.accs, pfs)
		release()
		tr.end(sp)
		tr.end(cell)
		if err != nil {
			return nil, err
		}
		if prof != nil {
			prof.simAccesses += int64(len(b.accs))
			addSim(&prof.sims, res)
		}
		outs = append(outs, cellOut{
			Metrics: runner.Metrics{
				Prefetcher:     p.Name(),
				Trace:          spec.Trace,
				IPC:            res.IPC,
				Accuracy:       res.Accuracy(),
				Coverage:       res.Coverage(b.misses),
				Issued:         res.PrefIssued,
				Useful:         res.PrefUseful,
				BaselineMisses: b.misses,
			},
			BaselineIPC: b.ipc,
			Cycles:      res.Cycles,
		})
	}
	return outs, nil
}

func addSim(sum *sim.Result, r sim.Result) {
	sum.LLCLoadMisses += r.LLCLoadMisses
	sum.PrefIssued += r.PrefIssued
	sum.PrefUseful += r.PrefUseful
	sum.PrefLate += r.PrefLate
	sum.PrefDropped += r.PrefDropped
	sum.DRAMRowHits += r.DRAMRowHits
}

// quality reports ipc_speedup (mean IPC over mean no-prefetch IPC),
// accuracy (useful over issued) and coverage (useful over baseline LLC
// misses), pooled over every cell that prefetches.
func quality(o *outcome, outs []cellOut) {
	var ipc, baseIPC float64
	var useful, issued, misses uint64
	n := 0
	for _, c := range outs {
		if c.Prefetcher == "NoPF" {
			continue
		}
		n++
		ipc += c.IPC
		baseIPC += c.BaselineIPC
		useful += c.Useful
		issued += c.Issued
		misses += c.BaselineMisses
	}
	if n == 0 || baseIPC == 0 || issued == 0 || misses == 0 {
		o.fail("no prefetching cell to compute quality from")
		return
	}
	o.set("ipc_speedup", ipc/baseIPC)
	o.set("accuracy", float64(useful)/float64(issued))
	o.set("coverage", float64(useful)/float64(misses))
}

// checkCells compares got with want cell by cell and returns how many
// differ, recording each difference.
func checkCells(o *outcome, what string, got, want []cellOut) int64 {
	if len(got) != len(want) {
		o.fail("%s: %d cells, want %d", what, len(got), len(want))
		return int64(len(want))
	}
	var bad int64
	for i := range got {
		if got[i] != want[i] {
			bad++
			o.fail("%s: cell %d (%s/%s) = %+v, want %+v", what, i, want[i].Trace, want[i].Prefetcher, got[i], want[i])
		}
	}
	return bad
}

// checkGridInvariants checks what must hold for every grid result: NoPF
// simulates exactly the baseline, and every cell of a trace shares one
// baseline.
func checkGridInvariants(o *outcome, outs []cellOut) {
	baseIPC := map[string]float64{}
	for _, c := range outs {
		if c.Prefetcher == "NoPF" && c.IPC != c.BaselineIPC {
			o.fail("%s: NoPF IPC %v != baseline IPC %v", c.Trace, c.IPC, c.BaselineIPC)
		}
		if b, ok := baseIPC[c.Trace]; ok && b != c.BaselineIPC {
			o.fail("%s: cells disagree on the baseline IPC (%v vs %v)", c.Trace, b, c.BaselineIPC)
		}
		baseIPC[c.Trace] = c.BaselineIPC
	}
}

func runGridSNN(ctx context.Context, o options) *outcome {
	return runGrid(ctx, o, o.size.snnTraces, snnLineup, o.size.snnLoads, false)
}

func runGridTables(ctx context.Context, o options) *outcome {
	traces := o.size.tableTraces
	if traces == nil {
		traces = workload.Names()
	}
	return runGrid(ctx, o, traces, tableLineup, o.size.tableLoads, true)
}

// gridSetup builds the grid and warms every technique of the lineup on
// a short trace through the same path, so engine pools and lazily built
// state exist before the first timed pass.
func gridSetup(ctx context.Context, o options, traces, lineup []string, loads int, viaDist bool) (*gridBench, error) {
	g, err := newGridBench(traces, lineup, loads, o.wseed, viaDist)
	if err != nil {
		return nil, err
	}
	warm, err := newGridBench(traces[:1], lineup, 2_000, o.wseed, viaDist)
	if err != nil {
		return nil, err
	}
	if _, err := warm.pass(ctx); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return g, nil
}

func runGrid(ctx context.Context, o options, traces, lineup []string, loads int, viaDist bool) *outcome {
	out := newOutcome()
	g, setupS, err := timeSetup(o.size.setupRepeat, func() (*gridBench, error) {
		return gridSetup(ctx, o, traces, lineup, loads, viaDist)
	}, nil)
	if err != nil {
		out.fail("setup: %v", err)
		return out
	}
	out.printf("grid: %d traces x %d prefetchers = %d cells, %d loads each, seed %d", len(traces), len(lineup), len(g.specs), loads, o.wseed)
	if o.traced {
		tracedGrid(ctx, o, g, out)
		return out
	}
	out.set("setup_s", setupS)

	hs := startHeapSampler(0)
	var passes []gridPass
	var peaks []float64
	start := time.Now()
	for {
		p, err := g.pass(ctx)
		if err != nil {
			hs.close()
			out.attempted += int64(len(g.specs))
			out.failed += int64(len(g.specs))
			out.fail("pass %d: %v", len(passes), err)
			return out
		}
		peaks = append(peaks, hs.take())
		passes = append(passes, p)
		if time.Since(start)+p.wall > o.budget {
			break
		}
	}
	hs.close()

	// Checks, after timing: every pass must equal the stage-by-stage
	// replay bit for bit.
	want, err := g.replay(ctx, nil)
	if err != nil {
		out.fail("reference replay: %v", err)
		want = nil
	}
	checkGridInvariants(out, want)
	var walls, cells []float64
	for i, p := range passes {
		out.attempted += int64(len(g.specs))
		got := make([]cellOut, len(p.res))
		for j, r := range p.res {
			got[j] = outOf(r)
			cells = append(cells, ms(r.Wall))
		}
		if want != nil {
			out.failed += checkCells(out, fmt.Sprintf("pass %d vs replay", i), got, want)
		} else {
			out.failed += int64(len(g.specs))
		}
		if p.baselineSims >= 0 && p.baselineSims != int64(len(traces)) {
			out.fail("pass %d: runner.BaselineSims() = %d, want %d distinct traces", i, p.baselineSims, len(traces))
		}
		walls = append(walls, p.wall.Seconds())
	}
	if want != nil {
		quality(out, want)
	}
	out.set("wall_s", median(walls))
	out.set("p50_ms", quantile(cells, 0.5))
	out.set("tail_ms", quantile(cells, 0.9))
	out.set("peak_heap_mb", median(peaks))
	out.printf("passes: %d, pass walls %s s", len(passes), fmtList(walls))
	out.printf("cell_p50_ms %.3f ms, cell_p90_ms %.3f ms over %d cells (p50_ms, tail_ms)", quantile(cells, 0.5), quantile(cells, 0.9), len(cells))
	return out
}

// tracedGrid is the traced run of a grid: one untraced pass, one pass of
// the production path with telemetry on, and the stage-by-stage replay
// with spans, all three required to agree bit for bit.
func tracedGrid(ctx context.Context, o options, g *gridBench, out *outcome) {
	n := int64(len(g.specs))
	out.attempted = 3 * n
	fail := func(format string, args ...any) {
		out.failed = out.attempted
		out.fail(format, args...)
		zeroMissing(out)
	}

	gc0 := readGoCounters()
	plain, err := g.pass(ctx)
	if err != nil {
		fail("untraced pass: %v", err)
		return
	}
	setGoDelta(out, gc0)

	reg := telemetryOn()
	prod, err := g.pass(ctx)
	snap := reg.Snapshot()
	if err != nil {
		telemetryOff()
		fail("telemetry pass: %v", err)
		return
	}

	reg = telemetryOn()
	prof := newReplayProfile()
	t0 := time.Now()
	outs, err := g.replay(ctx, prof)
	tracedWall := time.Since(t0)
	rsnap := reg.Snapshot()
	telemetryOff()
	if err != nil {
		fail("traced replay: %v", err)
		return
	}

	checkGridInvariants(out, outs)
	for _, p := range []struct {
		what string
		pass gridPass
	}{{"untraced pass", plain}, {"telemetry pass", prod}} {
		got := make([]cellOut, len(p.pass.res))
		for i, r := range p.pass.res {
			got[i] = outOf(r)
		}
		out.failed += checkCells(out, p.what+" vs traced replay", got, outs)
	}
	baselineSims := snap.Counters["runner.baseline_sims"]
	if baselineSims != uint64(len(g.traces)) {
		out.fail("runner.baseline_sims = %d, want %d distinct traces", baselineSims, len(g.traces))
	}

	tr := prof.tr
	self := tr.selfTimes()
	var cellWall time.Duration
	for _, r := range prod.res {
		cellWall += r.Wall
	}
	stages := tr.total("workload.generate") + tr.total("sim.baseline") + tr.total("prefetch.generate") + tr.total("sim.replay")
	out.set("workload.gen_ms", ms(tr.total("workload.generate")))
	out.set("sim.baseline_ms", ms(tr.total("sim.baseline")))
	out.set("sim.replay_ms", ms(tr.total("sim.replay")))
	simNs := float64(tr.total("sim.baseline") + tr.total("sim.replay"))
	out.set("sim.ns_per_access", simNs/float64(prof.simAccesses))
	out.set("sim.self_ms", ms(self["sim"]))
	reportSimCounts(out, prof.sims)
	out.set("prefetch.generate_ms", ms(tr.total("prefetch.generate")))
	out.set("prefetch.self_ms", ms(self["prefetch"]))
	for _, p := range tablePrefetchers {
		v := 0.0
		if a := prof.genAccs[p]; a > 0 {
			v = float64(prof.genNs[p]) / float64(a)
		}
		out.set("prefetch."+strings.ToLower(p)+".ns_per_access", v)
	}
	var as adviseStats
	for _, t := range prof.timers {
		as.add(t)
	}
	as.report(out, reportSNN(out, rsnap))
	out.set("core.self_ms", ms(self["core"]))
	out.set("runner.baseline_sims", float64(baselineSims))
	hits, misses := snap.Counters["runner.flight_hits"], snap.Counters["runner.flight_misses"]
	if hits+misses > 0 {
		out.set("runner.flight_hit_frac", float64(hits)/float64(hits+misses))
	}
	out.set("runner.self_ms", ms(cellWall-stages))
	extra := map[string]time.Duration{"runner": cellWall - stages}
	if g.viaDist {
		extra["dist"] = prod.wall - cellWall
		out.set("dist.leases_granted", float64(snap.Counters["dist.leases_granted"]))
		out.set("dist.results", float64(snap.Counters["dist.results"]))
		out.set("dist.self_ms", ms(extra["dist"]))
	}
	out.set("tracing.overhead_ms", ms(tracedWall-plain.wall))
	zeroMissing(out)

	out.printf("untraced pass %.3f s, telemetry pass %.3f s, traced replay %.3f s (tracing overhead %+.1f ms)",
		plain.wall.Seconds(), prod.wall.Seconds(), tracedWall.Seconds(), ms(tracedWall-plain.wall))
	printSelf(out, self, extra)
	if path, err := tr.write(o.spansDir, fmt.Sprintf("%s-seed%d.csv", gridName(g), o.seed)); err != nil {
		out.fail("writing spans: %v", err)
	} else if path != "" {
		out.printf("spans: %d written to %s", len(tr.spans), path)
	}
}

func gridName(g *gridBench) string {
	if g.viaDist {
		return "grid-tables"
	}
	return "grid-snn"
}

func reportSimCounts(o *outcome, s sim.Result) {
	o.set("sim.llc_misses", float64(s.LLCLoadMisses))
	o.set("sim.pref_issued", float64(s.PrefIssued))
	o.set("sim.pref_useful", float64(s.PrefUseful))
	o.set("sim.pref_late", float64(s.PrefLate))
	o.set("sim.pref_dropped", float64(s.PrefDropped))
	o.set("sim.dram_row_hits", float64(s.DRAMRowHits))
}

// printSelf prints each layer's self time; extra holds layers whose self
// time is derived outside the spans.
func printSelf(o *outcome, self, extra map[string]time.Duration) {
	var parts []string
	for _, l := range []string{"workload", "trace", "sim", "prefetch", "core", "runner", "dist", "serve"} {
		d, ok := self[l]
		if e, eok := extra[l]; eok {
			d, ok = e, true
		}
		if ok && d != 0 {
			parts = append(parts, fmt.Sprintf("%s %.1f", l, ms(d)))
		}
	}
	o.printf("self time by layer (ms): %s", strings.Join(parts, ", "))
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
