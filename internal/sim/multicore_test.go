package sim

import (
	"strings"
	"testing"

	"pathfinder/internal/trace"
)

// offsetTrace is seqTrace displaced into a distinct address region.
func offsetTrace(n int, gap, region uint64) []trace.Access {
	accs := seqTrace(n, gap)
	for i := range accs {
		accs[i].Addr += region << 36
	}
	return accs
}

func TestRunMultiValidation(t *testing.T) {
	if _, err := runMulti(DefaultConfig(), nil, nil); err == nil {
		t.Error("accepted zero cores")
	}
	cfg := DefaultConfig()
	cfg.Width = 0
	if _, err := runMulti(cfg, [][]trace.Access{seqTrace(10, 10)}, nil); err == nil {
		t.Error("accepted zero width")
	}
	if _, err := runMulti(DefaultConfig(), [][]trace.Access{seqTrace(10, 10)}, make([][]trace.Prefetch, 2)); err == nil {
		t.Error("accepted mismatched prefetch file count")
	}
}

func TestRunMultiSingleCoreMatchesRun(t *testing.T) {
	accs := seqTrace(3000, 20)
	var pfsFile []trace.Prefetch
	for i := 0; i+8 < len(accs); i++ {
		pfsFile = append(pfsFile, trace.Prefetch{ID: accs[i].ID, Addr: accs[i+8].Addr})
	}
	single, err := Run(DefaultConfig(), accs, pfsFile)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := runMulti(DefaultConfig(), [][]trace.Access{accs}, [][]trace.Prefetch{pfsFile})
	if err != nil {
		t.Fatal(err)
	}
	m := multi[0]
	if m.IPC != single.IPC {
		t.Errorf("1-core multi-core replay IPC %.4f != Run IPC %.4f", m.IPC, single.IPC)
	}
	if m.PrefUseful != single.PrefUseful || m.LLCLoadMisses != single.LLCLoadMisses {
		t.Errorf("counter mismatch: multi %+v vs single %+v", m, single)
	}
}

func TestRunMultiInterferenceSlowsCores(t *testing.T) {
	// Two memory-hungry cores sharing the LLC and DRAM must each run
	// slower than alone.
	a := offsetTrace(4000, 10, 1)
	b := offsetTrace(4000, 10, 2)
	alone, err := Run(DefaultConfig(), a, nil)
	if err != nil {
		t.Fatal(err)
	}
	both, err := runMulti(DefaultConfig(), [][]trace.Access{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if both[0].IPC >= alone.IPC {
		t.Errorf("core 0 with co-runner IPC %.3f >= alone %.3f", both[0].IPC, alone.IPC)
	}
}

func TestRunMultiLLCContention(t *testing.T) {
	// A cache-fitting working set alone stays resident; with a streaming
	// co-runner thrashing the shared LLC it suffers more LLC misses.
	hot := make([]trace.Access, 6000)
	for i := range hot {
		// Working set of 2048 blocks: fits the scaled LLC (4096) alone.
		hot[i] = trace.Access{ID: uint64(i+1) * 10, PC: 1, Addr: uint64(i%2048) * trace.BlockBytes * 17}
	}
	stream := offsetTrace(6000, 10, 3)
	cfg := ScaledConfig()

	alone, err := Run(cfg, hot, nil)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := runMulti(cfg, [][]trace.Access{hot, stream}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if shared[0].LLCLoadMisses <= alone.LLCLoadMisses {
		t.Errorf("co-runner did not increase LLC misses: %d vs %d alone",
			shared[0].LLCLoadMisses, alone.LLCLoadMisses)
	}
}

func TestRunMultiPrefetchSharing(t *testing.T) {
	// A prefetch issued by core 0 for a block core 1 demands can satisfy
	// core 1 (shared LLC).
	shared := uint64(5) << 36
	a := make([]trace.Access, 200)
	b := make([]trace.Access, 200)
	for i := range a {
		a[i] = trace.Access{ID: uint64(i+1) * 10, PC: 1, Addr: shared + uint64(i)*trace.BlockBytes}
		b[i] = trace.Access{ID: uint64(i+1) * 10, PC: 2, Addr: shared + uint64(i)*trace.BlockBytes}
	}
	// Core 0 prefetches the stream well ahead; core 1 has no prefetcher.
	var pfs []trace.Prefetch
	for i := 0; i+4 < len(a); i++ {
		pfs = append(pfs, trace.Prefetch{ID: a[i].ID, Addr: a[i+4].Addr})
	}
	res, err := runMulti(DefaultConfig(), [][]trace.Access{a, b}, [][]trace.Prefetch{pfs, nil})
	if err != nil {
		t.Fatal(err)
	}
	if res[1].LLCLoadHits == 0 {
		t.Error("core 1 never hit lines prefetched by core 0")
	}
}

func TestRunMultiPerCoreResults(t *testing.T) {
	fast := make([]trace.Access, 1000)
	for i := range fast {
		fast[i] = trace.Access{ID: uint64(i+1) * 10, PC: 1, Addr: uint64(i%4) * trace.BlockBytes}
	}
	slow := offsetTrace(1000, 10, 4)
	res, err := runMulti(DefaultConfig(), [][]trace.Access{fast, slow}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d, want 2", len(res))
	}
	if res[0].IPC <= res[1].IPC {
		t.Errorf("cache-resident core IPC %.3f <= streaming core %.3f", res[0].IPC, res[1].IPC)
	}
}

func TestRunMultiWarmupExcludesLLCStats(t *testing.T) {
	// Mirror of TestRunWarmupExcludesStats for the multicore path: the
	// shared LLC's own counters must cover the measured window only. The
	// private L1/L2 get a ResetStats at the warmup boundary, but the LLC
	// is gated per lookup — before the fix its Hits/Misses also counted
	// every warmup access.
	accs := seqTrace(2000, 10)
	cfg := DefaultConfig()
	cfg.Warmup = 1000
	mem := newSharedMemory(cfg)
	p := newCorePipeline(cfg, newReplayWindow(trace.NewSliceSource(accs)), nil)
	for !p.done() {
		if err := p.step(mem); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.LLCLoadMisses != 1000 {
		t.Errorf("post-warmup LLCLoadMisses = %d, want 1000", res.LLCLoadMisses)
	}
	// With no prefetch file every measured LLC access is a plain lookup,
	// so the cache's counters must equal the per-core measured counters.
	if mem.llc.Hits != res.LLCLoadHits || mem.llc.Misses != res.LLCLoadMisses {
		t.Errorf("shared LLC counters %d/%d include warmup accesses; measured window saw %d/%d",
			mem.llc.Hits, mem.llc.Misses, res.LLCLoadHits, res.LLCLoadMisses)
	}
}

func TestRunEmptyMeasuredWindowErrors(t *testing.T) {
	// Warmup == len(accs)-1 leaves one cheap L1-hitting access in the
	// measured window — under a cycle of retirement. The old code clamped
	// the window to one cycle and reported a fabricated IPC; now it is a
	// positioned error naming the core.
	accs := make([]trace.Access, 100)
	for i := range accs {
		accs[i] = trace.Access{ID: uint64(i + 1), PC: 1, Addr: 0}
	}
	cfg := DefaultConfig()
	cfg.Warmup = len(accs) - 1
	_, err := Run(cfg, accs, nil)
	if err == nil {
		t.Fatal("Run accepted an empty measured window")
	}
	if !strings.Contains(err.Error(), "core 0") {
		t.Errorf("error not positioned on the core: %v", err)
	}
	// An idle core (empty trace) sharing the machine is still fine.
	res, err := runMulti(DefaultConfig(), [][]trace.Access{seqTrace(100, 10), nil}, nil)
	if err != nil {
		t.Fatalf("idle co-runner: %v", err)
	}
	if res[1].Instructions != 0 || res[1].IPC != 0 {
		t.Errorf("idle core result: %+v", res[1])
	}
}
