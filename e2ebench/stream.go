package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"pathfinder/internal/prefetch"
	"pathfinder/internal/runner"
	"pathfinder/internal/sim"
	"pathfinder/internal/trace"
	"pathfinder/internal/workload"
)

// streamTrace is the stream-replay input: a Table 5 synthetic trace whose
// mix exercises the decoder and the full-size simulator.
const streamTrace = "450-soplex-s0"

// streamBench holds the stream-replay input, encoded once in memory.
type streamBench struct {
	pft3   []byte
	n      int
	digest uint64
	genDur time.Duration
	encDur time.Duration
}

// streamSetup generates the trace, digests it, and encodes it into an
// in-memory PFT3 stream. tr may be nil.
func streamSetup(loads int, seed int64, tr *tracer) (*streamBench, error) {
	sp := tr.begin("workload.generate", -1, 0)
	t0 := time.Now()
	accs, err := workload.Generate(streamTrace, loads, seed)
	genDur := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	digest, n, err := trace.HashSource(trace.NewSliceSource(accs))
	if err != nil {
		return nil, err
	}
	sp = tr.begin("trace.encode", -1, 0)
	t0 = time.Now()
	var buf bytes.Buffer
	err = trace.Encode(&buf, trace.NewSliceSource(accs))
	encDur := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &streamBench{pft3: buf.Bytes(), n: int(n), digest: digest, genDur: genDur, encDur: encDur}, nil
}

func (s *streamBench) source(context.Context) (trace.Source, error) {
	return trace.NewReader(bytes.NewReader(s.pft3))
}

// job is the replay cell: a Source job on the full Table 3 machine. PFT3
// does not declare its length, so the 10% warmup is pinned explicitly.
func (s *streamBench) job() runner.Job {
	return runner.Job{
		Trace:     streamTrace,
		Source:    s.source,
		SourceKey: fmt.Sprintf("fnv1a:%016x:%d", s.digest, s.n),
		Warmup:    s.n / 10,
		New:       func() (prefetch.Prefetcher, error) { return prefetch.NewStride(), nil },
	}
}

// pass evaluates the replay cell once on a fresh runner, so every pass
// runs its own baseline.
func (s *streamBench) pass(ctx context.Context) (runner.Result, error) {
	r := runner.New(runner.Config{Parallelism: 1, Sim: sim.DefaultConfig()})
	return r.Eval(ctx, s.job())
}

// streamStages times the replay cell's stages from the outside.
type streamStages struct {
	baseline, generate, replay time.Duration
}

// replay evaluates the cell stage by stage in the runner's order:
// baseline, prefetch file, timed replay, each over a fresh decode of the
// stream. tr may be nil.
func (s *streamBench) replay(ctx context.Context, tr *tracer) (cellOut, sim.Result, streamStages, error) {
	var st streamStages
	cfg := sim.DefaultConfig()
	cfg.Warmup = s.n / 10
	cell := tr.begin("bench.cell", -1, 0)
	defer tr.end(cell)

	stage := func(name string, fn func(src trace.Source) error) (time.Duration, error) {
		src, err := s.source(ctx)
		if err != nil {
			return 0, err
		}
		sp := tr.begin(name, cell, 0)
		t0 := time.Now()
		err = fn(src)
		d := time.Since(t0)
		tr.end(sp)
		return d, err
	}
	var base, res sim.Result
	var pfs []trace.Prefetch
	var err error
	if st.baseline, err = stage("sim.baseline", func(src trace.Source) error {
		eng, release := sim.AcquireEngine(cfg)
		defer release()
		base, err = eng.RunStreamCtx(ctx, src, nil)
		return err
	}); err != nil {
		return cellOut{}, sim.Result{}, st, err
	}
	p := prefetch.NewStride()
	if st.generate, err = stage("prefetch.generate", func(src trace.Source) error {
		pfs, err = prefetch.GenerateFileStreamCtx(ctx, p, src, prefetch.Budget)
		return err
	}); err != nil {
		return cellOut{}, sim.Result{}, st, err
	}
	if st.replay, err = stage("sim.replay", func(src trace.Source) error {
		eng, release := sim.AcquireEngine(cfg)
		defer release()
		res, err = eng.RunStreamCtx(ctx, src, pfs)
		return err
	}); err != nil {
		return cellOut{}, sim.Result{}, st, err
	}
	return cellOut{
		Metrics: runner.Metrics{
			Prefetcher:     p.Name(),
			Trace:          streamTrace,
			IPC:            res.IPC,
			Accuracy:       res.Accuracy(),
			Coverage:       res.Coverage(base.LLCLoadMisses),
			Issued:         res.PrefIssued,
			Useful:         res.PrefUseful,
			BaselineMisses: base.LLCLoadMisses,
		},
		BaselineIPC: base.IPC,
		Cycles:      res.Cycles,
	}, res, st, nil
}

// decodeCheck checks the decoded stream's digest against the generator's
// and returns the decoder's own cost per record, timed over a separate
// pass that only decodes.
func (s *streamBench) decodeCheck(o *outcome) float64 {
	src, err := s.source(context.Background())
	if err == nil {
		var digest, n uint64
		digest, n, err = trace.HashSource(src)
		if err == nil && (digest != s.digest || int(n) != s.n) {
			o.fail("decoded stream digest %016x over %d records, generator's %016x over %d", digest, n, s.digest, s.n)
		}
	}
	if err == nil {
		src, err = s.source(context.Background())
	}
	if err != nil {
		o.fail("decode: %v", err)
		return 0
	}
	var a trace.Access
	t0 := time.Now()
	for err == nil {
		err = src.Next(&a)
	}
	d := time.Since(t0)
	if err != io.EOF {
		o.fail("decode: %v", err)
	}
	return float64(d) / float64(s.n)
}

func runStreamReplay(ctx context.Context, o options) *outcome {
	out := newOutcome()
	s, setupS, err := timeSetup(o.size.setupRepeat, func() (*streamBench, error) {
		return streamSetup(o.size.streamLoads, o.wseed, nil)
	}, nil)
	if err != nil {
		out.fail("setup: %v", err)
		return out
	}
	out.printf("stream: %s, %d loads, PFT3 %d bytes, digest %016x, seed %d", streamTrace, s.n, len(s.pft3), s.digest, o.wseed)
	if o.traced {
		tracedStream(ctx, o, s, out)
		return out
	}
	out.set("setup_s", setupS)

	hs := startHeapSampler(0)
	var results []runner.Result
	var peaks []float64
	start := time.Now()
	for {
		r, err := s.pass(ctx)
		out.attempted++
		if err != nil {
			out.failed++
			out.fail("pass %d: %v", len(results), err)
			break
		}
		peaks = append(peaks, hs.take())
		results = append(results, r)
		if time.Since(start)+r.Wall > o.budget {
			break
		}
	}
	hs.close()

	want, _, _, err := s.replay(ctx, nil)
	if err != nil {
		out.fail("reference replay: %v", err)
	}
	s.decodeCheck(out)
	var cells []float64
	for i, r := range results {
		cells = append(cells, ms(r.Wall))
		if err == nil && outOf(r) != want {
			out.failed++
			out.fail("cell %d = %+v, stage-by-stage replay %+v", i, outOf(r), want)
		}
	}
	if err == nil {
		quality(out, []cellOut{want})
	}
	out.set("wall_s", median(cells)/1e3)
	out.set("p50_ms", quantile(cells, 0.5))
	out.set("tail_ms", quantile(cells, 0.9))
	out.set("peak_heap_mb", median(peaks))
	out.printf("passes: %d, cell walls %s ms", len(cells), fmtList(cells))
	return out
}

// tracedStream is the traced run of stream-replay: an untraced cell, a
// cell with telemetry on, the traced stage-by-stage replay, and one timed
// decode, all required to agree. Each runs alone, so the cell wall and the
// stage spans line up.
func tracedStream(ctx context.Context, o options, s *streamBench, out *outcome) {
	out.attempted = 3
	gc0 := readGoCounters()
	t0 := time.Now()
	plain, err := s.pass(ctx)
	plainWall := time.Since(t0)
	if err != nil {
		out.failed = out.attempted
		out.fail("untraced pass: %v", err)
		zeroMissing(out)
		return
	}
	setGoDelta(out, gc0)

	reg := telemetryOn()
	prod, err := s.pass(ctx)
	snap := reg.Snapshot()
	if err != nil {
		telemetryOff()
		out.failed = out.attempted
		out.fail("telemetry pass: %v", err)
		zeroMissing(out)
		return
	}

	tr := newTracer()
	// Setup once more, under spans: generation and encoding.
	s2, err := streamSetup(o.size.streamLoads, o.wseed, tr)
	if err == nil && !bytes.Equal(s2.pft3, s.pft3) {
		out.fail("re-encoding the trace gave different bytes")
	}
	t1 := time.Now()
	got, simRes, st, rerr := s.replay(ctx, tr)
	tracedWall := time.Since(t1)
	telemetryOff()
	if err != nil || rerr != nil {
		out.failed = out.attempted
		out.fail("traced replay: %v %v", err, rerr)
		zeroMissing(out)
		return
	}
	decodeNs := s.decodeCheck(out)
	for _, p := range []struct {
		what string
		r    runner.Result
	}{{"untraced pass", plain}, {"telemetry pass", prod}} {
		if outOf(p.r) != got {
			out.failed++
			out.fail("%s = %+v, traced replay %+v", p.what, outOf(p.r), got)
		}
	}

	// Each stage pulls the stream through the decoder, whose time is
	// estimated from the timed decode and charged to the trace layer.
	decode := time.Duration(decodeNs * float64(s.n))
	self := map[string]time.Duration{
		"workload": s2.genDur,
		"trace":    3*decode + s2.encDur,
		"sim":      st.baseline + st.replay - 2*decode,
		"prefetch": st.generate - decode,
		"runner":   prod.Wall - st.baseline - st.generate - st.replay,
	}
	out.set("workload.gen_ms", ms(s2.genDur))
	out.set("trace.decode_ns_per_rec", decodeNs)
	out.set("trace.encode_ms", ms(s2.encDur))
	out.set("trace.self_ms", ms(self["trace"]))
	out.set("sim.baseline_ms", ms(st.baseline))
	out.set("sim.replay_ms", ms(st.replay))
	out.set("sim.ns_per_access", float64(self["sim"])/float64(2*s.n))
	out.set("sim.self_ms", ms(self["sim"]))
	reportSimCounts(out, simRes)
	out.set("prefetch.generate_ms", ms(st.generate))
	out.set("prefetch.self_ms", ms(self["prefetch"]))
	out.set("prefetch.stride.ns_per_access", float64(self["prefetch"])/float64(s.n))
	out.set("runner.baseline_sims", float64(snap.Counters["runner.baseline_sims"]))
	if snap.Counters["runner.baseline_sims"] != 1 {
		out.fail("runner.baseline_sims = %d, want 1", snap.Counters["runner.baseline_sims"])
	}
	out.set("runner.self_ms", ms(self["runner"]))
	out.set("tracing.overhead_ms", ms(tracedWall-plainWall))
	zeroMissing(out)

	out.printf("untraced pass %.3f s, telemetry pass %.3f s, traced replay %.3f s (tracing overhead %+.1f ms)",
		plainWall.Seconds(), prod.Wall.Seconds(), tracedWall.Seconds(), ms(tracedWall-plainWall))
	out.printf("decode %.1f ns/record x %d records x 3 passes", decodeNs, s.n)
	printSelf(out, self, nil)
	if path, err := tr.write(o.spansDir, fmt.Sprintf("stream-replay-seed%d.csv", o.seed)); err != nil {
		out.fail("writing spans: %v", err)
	} else if path != "" {
		out.printf("spans: %d written to %s", len(tr.spans), path)
	}
}
