// ensemble demonstrates §3.4/§5's best design point on an irregular,
// server-style workload: PATHFINDER alone is selective and misses the
// temporally-correlated pointer traffic, the idealized SISB alone misses
// the delta patterns, and the fixed-priority ensemble of
// PATHFINDER → SISB → NextLine combines their strengths.
//
//	go run ./examples/ensemble
package main

import (
	"context"
	"fmt"

	"pathfinder"
)

func main() {
	const loads = 60_000
	// omnetpp: the paper's canonical SISB-friendly benchmark — heavy
	// temporal repetition, few within-page deltas (§5).
	src, err := pathfinder.GenerateTraceSource("471-omnetpp-s1", loads, 1)
	if err != nil {
		panic(err)
	}
	accs, err := pathfinder.CollectTrace(src)
	if err != nil {
		panic(err)
	}
	cfg := pathfinder.ScaledSimConfig()
	cfg.Warmup = loads / 10
	res, err := pathfinder.Simulate(cfg, []pathfinder.TraceSource{pathfinder.NewSliceTraceSource(accs)}, nil)
	if err != nil {
		panic(err)
	}
	base := res[0]
	fmt.Printf("471-omnetpp-s1, %d loads — no prefetching: IPC %.3f\n\n", loads, base.IPC)

	byName := func(name string) pathfinder.OnlinePrefetcher {
		p, err := pathfinder.NewPrefetcherByName(name, 0)
		if err != nil {
			panic(err)
		}
		return p
	}
	members := []pathfinder.OnlinePrefetcher{
		byName("pathfinder"),
		byName("sisb"),
		byName("nextline"),
		byName("pf+nl+sisb"), // PATHFINDER → SISB → NextLine
	}

	fmt.Println("prefetcher   IPC     speedup  accuracy  coverage  issued")
	for _, p := range members {
		m, err := pathfinder.Eval(context.Background(), pathfinder.EvalJob{
			Prefetcher: p, Accs: accs, Sim: &cfg, Baseline: &base.LLCLoadMisses,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-12s %.3f  %+6.1f%%  %8.3f  %8.3f  %7d\n",
			m.Prefetcher, m.IPC, 100*(m.IPC/base.IPC-1), m.Accuracy, m.Coverage, m.Issued)
	}

	fmt.Println("\nThe ensemble keeps PATHFINDER's prefetches first and lets SISB fill")
	fmt.Println("the remaining budget slots, recovering most of the temporal coverage")
	fmt.Println("PATHFINDER alone cannot express (§5's ensemble discussion).")
}
