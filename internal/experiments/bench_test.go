package experiments

import (
	"testing"

	"pathfinder/internal/runner"
)

// BenchmarkFig4Grid is the Figure 4 PATHFINDER lineup from the technique
// registry — Pathfinder, PF+NL and PF+NL+SISB — on two traces, through a
// fresh runner each iteration, so every iteration pays for each trace's
// one PATHFINDER recording and its replays to the ensembles. `make
// bench-micro` records it in BENCH_experiments.json and `make bench-check`
// gates it.
func BenchmarkFig4Grid(b *testing.B) {
	o := newOptions([]Option{WithLoads(4000), WithSeed(1), WithParallelism(1)})
	var jobs []runner.Job
	for _, tr := range []string{"cc-5", "605-mcf-s1"} {
		for _, name := range []string{"Pathfinder", "PF+NL", "PF+NL+SISB"} {
			job, err := o.job(tr, name, name)
			if err != nil {
				b.Fatal(err)
			}
			jobs = append(jobs, job)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.newRunner().Run(o.ctx, jobs); err != nil {
			b.Fatal(err)
		}
	}
}
