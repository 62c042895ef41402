package runner

import (
	"bytes"
	"context"
	"testing"

	"pathfinder/internal/prefetch"
	"pathfinder/internal/sim"
	"pathfinder/internal/trace"
	"pathfinder/internal/workload"
)

// BenchmarkRunGrid is the evaluation engine's end-to-end macro-benchmark
// for BENCH_runner.json (`make bench-micro`): a small trace × prefetcher
// grid through the full pipeline — trace generation and baselines behind
// the single-flight caches, prefetch-file generation, and the timed
// replays — at a fixed parallelism so runs compare across machines.
func BenchmarkRunGrid(b *testing.B) {
	jobs := chaosJobs([]string{"cc-5", "605-mcf-s1"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh Runner each iteration: the per-Runner caches must not
		// carry over, or every iteration after the first measures nothing.
		r := New(Config{Loads: 5000, Parallelism: 2})
		if _, err := r.Run(context.Background(), jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalSingle is the single-cell path: one Best-Offset evaluation
// end to end, the unit of work every grid cell pays.
func BenchmarkEvalSingle(b *testing.B) {
	jobs := chaosJobs([]string{"cc-5"})[:1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := New(Config{Loads: 5000, Parallelism: 1})
		if _, err := r.Eval(context.Background(), jobs[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalStream is one streaming cell as e2ebench's stream-replay
// runs it, at a sixth of the length: a Source job decoding an in-memory
// PFT3 stream of 200K 450-soplex-s0 loads, Stride on the full Table 3
// machine, and a fresh Runner per op, so every op runs its own baseline
// beside its generation and timed replay.
func BenchmarkEvalStream(b *testing.B) {
	const loads = 200_000
	accs, err := workload.Generate("450-soplex-s0", loads, 1)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, trace.NewSliceSource(accs)); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	job := Job{
		Trace: "450-soplex-s0",
		Source: func(context.Context) (trace.Source, error) {
			return trace.NewReader(bytes.NewReader(data))
		},
		SourceKey: "450-soplex-s0#1",
		// PFT3 does not declare its length, so the 10% warmup is pinned.
		Warmup: loads / 10,
		New:    func() (prefetch.Prefetcher, error) { return prefetch.NewStride(), nil },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := New(Config{Parallelism: 1, Sim: sim.DefaultConfig()})
		if _, err := r.Eval(context.Background(), job); err != nil {
			b.Fatal(err)
		}
	}
}
