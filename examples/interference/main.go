// interference demonstrates the multi-core simulator and §2.3's claim that
// co-scheduled threads perturb prefetchers: a cc-5-like core runs alone and
// then next to a streaming co-runner that thrashes the shared LLC and
// memory controller.
//
//	go run ./examples/interference
package main

import (
	"context"
	"fmt"

	"pathfinder"
)

// generate materializes a benchmark trace: both simulations below replay
// it, and the co-runner's addresses are rewritten in place.
func generate(name string, loads int, seed int64) []pathfinder.Access {
	src, err := pathfinder.GenerateTraceSource(name, loads, seed)
	if err != nil {
		panic(err)
	}
	accs, err := pathfinder.CollectTrace(src)
	if err != nil {
		panic(err)
	}
	return accs
}

func main() {
	const loads = 40_000
	victim := generate("cc-5", loads, 1)
	// The co-runner streams through its own address space.
	coRunner := generate("bfs-10", loads, 2)
	for i := range coRunner {
		coRunner[i].Addr += 1 << 42 // disjoint address spaces
	}

	cfg := pathfinder.ScaledSimConfig()
	cfg.Warmup = loads / 10

	pf, err := pathfinder.New(pathfinder.DefaultConfig())
	if err != nil {
		panic(err)
	}
	file, err := pathfinder.GeneratePrefetchesStream(context.Background(), pf,
		pathfinder.NewSliceTraceSource(victim), pathfinder.Budget)
	if err != nil {
		panic(err)
	}

	alone, err := pathfinder.Simulate(cfg,
		[]pathfinder.TraceSource{pathfinder.NewSliceTraceSource(victim)},
		[][]pathfinder.PrefetchEntry{file})
	if err != nil {
		panic(err)
	}
	solo := alone[0]
	shared, err := pathfinder.Simulate(cfg,
		[]pathfinder.TraceSource{pathfinder.NewSliceTraceSource(victim), pathfinder.NewSliceTraceSource(coRunner)},
		[][]pathfinder.PrefetchEntry{file, nil})
	if err != nil {
		panic(err)
	}

	fmt.Printf("cc-5 with PATHFINDER, %d loads\n\n", loads)
	fmt.Printf("%-22s IPC %.3f  accuracy %.3f  LLC misses %d\n",
		"alone:", solo.IPC, solo.Accuracy(), solo.LLCLoadMisses)
	fmt.Printf("%-22s IPC %.3f  accuracy %.3f  LLC misses %d\n",
		"with streaming core:", shared[0].IPC, shared[0].Accuracy(), shared[0].LLCLoadMisses)
	fmt.Printf("%-22s IPC %.3f (the co-runner itself)\n\n", "co-runner:", shared[1].IPC)
	fmt.Println("Sharing the LLC and memory controller costs the victim IPC and")
	fmt.Println("evicts its prefetched lines before use — the interference noise")
	fmt.Println("§2.3 argues prefetchers must tolerate.")
}
