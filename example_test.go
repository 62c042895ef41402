package pathfinder_test

import (
	"bytes"
	"context"
	"fmt"

	"pathfinder"
)

// ExampleNew shows the minimal online-learning loop: PATHFINDER observes a
// stream of loads walking a repeating delta pattern and, within a handful
// of accesses, starts suggesting the next blocks.
func ExampleNew() {
	pf, err := pathfinder.New(pathfinder.DefaultConfig())
	if err != nil {
		panic(err)
	}
	page, off := uint64(100), 0
	issued := 0
	for i := 0; i < 40; i++ {
		off += []int{1, 2, 3}[i%3] // the pattern PATHFINDER will learn
		if off >= 64 {
			page, off = page+1, 0
		}
		acc := pathfinder.Access{ID: uint64(i+1) * 10, PC: 0x400, Addr: page*4096 + uint64(off)*64}
		issued += len(pf.Advise(acc, pathfinder.Budget))
	}
	fmt.Println(issued > 0)
	// Output: true
}

// ExampleEval runs one cell of the two-phase evaluation (§4.1): Eval
// generates the named trace, simulates its no-prefetch baseline, and
// replays the prefetcher's advice through the timing model.
func ExampleEval() {
	bo, err := pathfinder.NewPrefetcherByName("bo", 0)
	if err != nil {
		panic(err)
	}
	m, err := pathfinder.Eval(context.Background(), pathfinder.EvalJob{
		Trace:      "bfs-10",
		Loads:      10_000,
		Prefetcher: bo,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(m.Prefetcher, m.IPC > 0, m.Accuracy >= 0 && m.Accuracy <= 1)
	// Output: BO true true
}

// ExampleRunner fans an evaluation grid across a worker pool; results come
// back in job order, bit-identical to a serial run.
func ExampleRunner() {
	r := pathfinder.NewRunner(pathfinder.RunnerConfig{Loads: 10_000})
	var jobs []pathfinder.EvalJob
	for _, tr := range []string{"cc-5", "bfs-10"} {
		jobs = append(jobs, pathfinder.EvalJob{
			Trace: tr,
			New: func() (pathfinder.OnlinePrefetcher, error) {
				return pathfinder.NewPrefetcherByName("bo", 0)
			},
		})
	}
	results, err := r.Run(context.Background(), jobs)
	if err != nil {
		panic(err)
	}
	for _, res := range results {
		fmt.Println(res.Trace, res.Prefetcher, res.IPC > 0)
	}
	// Output:
	// cc-5 BO true
	// bfs-10 BO true
}

// ExampleHardwareCost reproduces the paper's headline footprint (§3.5).
func ExampleHardwareCost() {
	cost, err := pathfinder.HardwareCost(pathfinder.DefaultHWConfig())
	if err != nil {
		panic(err)
	}
	fmt.Printf("%.2f mm^2\n", cost.AreaMM2)
	// Output: 0.23 mm^2
}

// ExamplePrefetcher_Save round-trips a trained prefetcher through its
// binary serialization.
func ExamplePrefetcher_Save() {
	pf, err := pathfinder.New(pathfinder.DefaultConfig())
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := pf.Save(&buf); err != nil {
		panic(err)
	}
	restored, err := pathfinder.LoadPrefetcher(&buf)
	if err != nil {
		panic(err)
	}
	fmt.Println(restored.Config() == pf.Config())
	// Output: true
}
