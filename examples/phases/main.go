// phases demonstrates the paper's core argument for real-time learning
// (§1): an epoch-trained model like Delta-LSTM only knows the patterns of
// its training window, while PATHFINDER's STDP keeps learning as the
// program moves between phases. We build a two-phase workload — the delta
// pattern changes completely halfway through — train Delta-LSTM on the
// first 10% (as the paper's setup does), and compare per-phase coverage.
//
//	go run ./examples/phases
package main

import (
	"context"
	"fmt"

	"pathfinder"
)

func main() {
	const n = 40_000
	accs := twoPhaseTrace(n)
	cfg := pathfinder.ScaledSimConfig()
	cfg.Warmup = n / 10

	res, err := pathfinder.Simulate(cfg, []pathfinder.TraceSource{pathfinder.NewSliceTraceSource(accs)}, nil)
	if err != nil {
		panic(err)
	}
	base := res[0]

	// Delta-LSTM: offline, trained on the leading 10% (phase 1 only).
	dcfg := pathfinder.DefaultDeltaLSTMConfig()
	dl, err := pathfinder.GenerateDeltaLSTM(dcfg, accs, pathfinder.Budget)
	if err != nil {
		panic(err)
	}

	// PATHFINDER: online.
	pf, err := pathfinder.New(pathfinder.DefaultConfig())
	if err != nil {
		panic(err)
	}
	pfFile, err := pathfinder.GeneratePrefetchesStream(context.Background(), pf,
		pathfinder.NewSliceTraceSource(accs), pathfinder.Budget)
	if err != nil {
		panic(err)
	}

	fmt.Printf("two-phase trace, %d loads (pattern changes at 50%%)\n", n)
	fmt.Printf("no prefetching: IPC %.3f\n\n", base.IPC)
	fmt.Println("prefetcher   phase-1 hits  phase-2 hits  overall coverage")

	for _, c := range []struct {
		name string
		pfs  []pathfinder.PrefetchEntry
	}{{"DeltaLSTM", dl}, {"Pathfinder", pfFile}} {
		p1, p2 := perPhaseHits(accs, c.pfs)
		m, err := pathfinder.Eval(context.Background(), pathfinder.EvalJob{
			Label: c.name, Accs: accs, File: c.pfs, Sim: &cfg, Baseline: &base.LLCLoadMisses,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-12s %12d  %12d  %.3f\n", c.name, p1, p2, m.Coverage)
	}

	fmt.Println("\nDelta-LSTM's hits collapse after the phase change (its vocabulary")
	fmt.Println("and weights froze at training time); PATHFINDER re-labels its")
	fmt.Println("neurons within a few observations of the new pattern (§3.4, Fig 8).")
}

// twoPhaseTrace walks delta pattern {1,2,3} for the first half, then
// *revisits the same address region* with pattern {5,7,2} — the program
// re-traverses its data structure with a different access pattern, so
// models that froze on phase 1 cannot hide behind disjoint addresses.
func twoPhaseTrace(n int) []pathfinder.Access {
	accs := make([]pathfinder.Access, 0, n)
	page, off, pos := uint64(100), 0, 0
	for i := 0; i < n; i++ {
		pattern := []int{1, 2, 3}
		if i >= n/2 {
			pattern = []int{5, 7, 2}
			if i == n/2 {
				page, off, pos = 100, 0, 0 // restart over the same region
			}
		}
		d := pattern[pos%3]
		pos++
		if off+d >= 64 {
			page++
			off = 0
			pos = 1
		} else {
			off += d
		}
		accs = append(accs, pathfinder.Access{
			ID:   uint64(i+1) * 12,
			PC:   0x400,
			Addr: page*4096 + uint64(off)*64,
		})
	}
	return accs
}

// perPhaseHits counts prefetches that matched the immediately following
// access, split at the trace midpoint.
func perPhaseHits(accs []pathfinder.Access, pfs []pathfinder.PrefetchEntry) (p1, p2 int) {
	nextAddr := make(map[uint64]uint64, len(accs)) // trigger ID -> next block
	for i := 0; i+1 < len(accs); i++ {
		nextAddr[accs[i].ID] = accs[i+1].Block()
	}
	mid := accs[len(accs)/2].ID
	for _, pf := range pfs {
		if nextAddr[pf.ID] == pf.Block() {
			if pf.ID < mid {
				p1++
			} else {
				p2++
			}
		}
	}
	return p1, p2
}
