package sim

import (
	"context"
	"testing"

	"pathfinder/internal/telemetry"
	"pathfinder/internal/trace"
)

// seqTrace builds a trace of n loads streaming through consecutive blocks,
// one load every `gap` instructions.
func seqTrace(n int, gap uint64) []trace.Access {
	accs := make([]trace.Access, n)
	for i := range accs {
		accs[i] = trace.Access{
			ID:   uint64(i+1) * gap,
			PC:   0x400000,
			Addr: uint64(i) * trace.BlockBytes * 7, // stride 7 blocks: no row reuse masking
		}
	}
	return accs
}

// runMulti replays one in-memory trace per core on a pooled engine.
func runMulti(cfg Config, cores [][]trace.Access, pfs [][]trace.Prefetch) ([]Result, error) {
	srcs := make([]trace.Source, len(cores))
	for i, accs := range cores {
		srcs[i] = trace.NewSliceSource(accs)
	}
	return runStreams(context.Background(), cfg, srcs, pfs)
}

// runStreams replays one stream per core on a pooled engine.
func runStreams(ctx context.Context, cfg Config, srcs []trace.Source, pfs [][]trace.Prefetch) ([]Result, error) {
	eng, release := AcquireEngine(cfg)
	defer release()
	return eng.RunMultiStreamCtx(ctx, srcs, pfs)
}

// runStream replays one stream on a pooled engine.
func runStream(ctx context.Context, cfg Config, src trace.Source, pfs []trace.Prefetch) (Result, error) {
	eng, release := AcquireEngine(cfg)
	defer release()
	return eng.RunStreamCtx(ctx, src, pfs)
}

func TestRunEmptyTrace(t *testing.T) {
	res, err := Run(DefaultConfig(), nil, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Instructions != 0 {
		t.Errorf("Instructions = %d, want 0", res.Instructions)
	}
}

func TestRunRejectsNonIncreasingIDs(t *testing.T) {
	accs := []trace.Access{{ID: 5, Addr: 0}, {ID: 5, Addr: 64}}
	if _, err := Run(DefaultConfig(), accs, nil); err == nil {
		t.Error("Run accepted duplicate IDs")
	}
}

func TestRunRejectsWarmupTooLarge(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Warmup = 10
	if _, err := Run(cfg, seqTrace(5, 10), nil); err == nil {
		t.Error("Run accepted warmup >= trace length")
	}
}

func TestRunCountsLLCMisses(t *testing.T) {
	// A cold stream of distinct blocks misses everywhere.
	accs := seqTrace(1000, 10)
	res, err := Run(DefaultConfig(), accs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.LLCLoadMisses != 1000 {
		t.Errorf("LLCLoadMisses = %d, want 1000", res.LLCLoadMisses)
	}
	if res.LLCLoadHits != 0 {
		t.Errorf("LLCLoadHits = %d, want 0", res.LLCLoadHits)
	}
}

func TestRunHotSetHitsInL1(t *testing.T) {
	// Repeatedly touching one block stays in L1 after the first access.
	accs := make([]trace.Access, 500)
	for i := range accs {
		accs[i] = trace.Access{ID: uint64(i+1) * 10, Addr: 4096}
	}
	res, err := Run(DefaultConfig(), accs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.LLCLoadAccesses != 1 {
		t.Errorf("LLCLoadAccesses = %d, want 1 (only the cold miss)", res.LLCLoadAccesses)
	}
}

func TestRunPerfectPrefetchingImprovesIPC(t *testing.T) {
	accs := seqTrace(5000, 20)
	// Prefetch each block 8 accesses ahead of its demand.
	var pfs []trace.Prefetch
	for i := 0; i+8 < len(accs); i++ {
		pfs = append(pfs, trace.Prefetch{ID: accs[i].ID, Addr: accs[i+8].Addr})
	}
	base, err := Run(DefaultConfig(), accs, nil)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Run(DefaultConfig(), accs, pfs)
	if err != nil {
		t.Fatal(err)
	}
	if pf.IPC <= base.IPC {
		t.Fatalf("perfect prefetching IPC %.3f <= baseline %.3f", pf.IPC, base.IPC)
	}
	if pf.PrefUseful == 0 {
		t.Error("no prefetches counted useful")
	}
	acc := pf.Accuracy()
	if acc < 0.9 {
		t.Errorf("perfect prefetch accuracy %.2f, want >= 0.9", acc)
	}
	cov := pf.Coverage(base.LLCLoadMisses)
	if cov < 0.9 {
		t.Errorf("perfect prefetch coverage %.2f, want >= 0.9", cov)
	}
}

func TestRunUselessPrefetchingDoesNotHelp(t *testing.T) {
	accs := seqTrace(3000, 20)
	// Prefetch blocks far away from the demand stream.
	var pfs []trace.Prefetch
	for i := 0; i < len(accs); i++ {
		pfs = append(pfs, trace.Prefetch{ID: accs[i].ID, Addr: 1<<40 + uint64(i)*trace.BlockBytes})
	}
	base, err := Run(DefaultConfig(), accs, nil)
	if err != nil {
		t.Fatal(err)
	}
	junk, err := Run(DefaultConfig(), accs, pfs)
	if err != nil {
		t.Fatal(err)
	}
	if junk.PrefUseful != 0 {
		t.Errorf("useless prefetches counted useful: %d", junk.PrefUseful)
	}
	if junk.IPC > base.IPC*1.01 {
		t.Errorf("useless prefetching improved IPC: %.3f vs %.3f", junk.IPC, base.IPC)
	}
}

func TestRunLatePrefetchStillUseful(t *testing.T) {
	accs := seqTrace(2000, 20)
	// Prefetch the very next access's block: almost certainly late but
	// should still be counted useful.
	var pfs []trace.Prefetch
	for i := 0; i+1 < len(accs); i++ {
		pfs = append(pfs, trace.Prefetch{ID: accs[i].ID, Addr: accs[i+1].Addr})
	}
	res, err := Run(DefaultConfig(), accs, pfs)
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefUseful == 0 {
		t.Fatal("late prefetches not counted useful")
	}
	if res.PrefLate == 0 {
		t.Error("no prefetch marked late despite 1-access lead time")
	}
}

func TestRunWarmupExcludesStats(t *testing.T) {
	accs := seqTrace(2000, 10)
	cfg := DefaultConfig()
	cfg.Warmup = 1000
	res, err := Run(cfg, accs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.LLCLoadMisses != 1000 {
		t.Errorf("post-warmup LLCLoadMisses = %d, want 1000", res.LLCLoadMisses)
	}
	full, err := Run(DefaultConfig(), accs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions >= full.Instructions {
		t.Errorf("warmup did not reduce measured instructions: %d vs %d", res.Instructions, full.Instructions)
	}
}

func TestRunIPCBounded(t *testing.T) {
	accs := seqTrace(2000, 50)
	res, err := Run(DefaultConfig(), accs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 || res.IPC > float64(DefaultConfig().Width) {
		t.Errorf("IPC %.3f outside (0, width]", res.IPC)
	}
}

func TestRunCacheHitsRaiseIPC(t *testing.T) {
	// A tiny working set (all L1 hits) must beat a cold DRAM stream.
	hot := make([]trace.Access, 3000)
	for i := range hot {
		hot[i] = trace.Access{ID: uint64(i+1) * 10, Addr: uint64(i%8) * trace.BlockBytes}
	}
	cold := seqTrace(3000, 10)
	hotRes, err := Run(DefaultConfig(), hot, nil)
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := Run(DefaultConfig(), cold, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hotRes.IPC <= coldRes.IPC {
		t.Errorf("hot IPC %.3f <= cold IPC %.3f", hotRes.IPC, coldRes.IPC)
	}
}

func TestRunDuplicatePrefetchesDeduplicated(t *testing.T) {
	accs := seqTrace(100, 20)
	var pfs []trace.Prefetch
	for i := 0; i < 10; i++ {
		pfs = append(pfs, trace.Prefetch{ID: accs[0].ID, Addr: 1 << 30})
	}
	res, err := Run(DefaultConfig(), accs, pfs)
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefIssued != 10 {
		t.Errorf("PrefIssued = %d, want 10", res.PrefIssued)
	}
	if res.PrefFetched != 1 {
		t.Errorf("PrefFetched = %d, want 1 (duplicates deduplicated)", res.PrefFetched)
	}
}

func TestAccuracyCoverageZeroSafe(t *testing.T) {
	var r Result
	if r.Accuracy() != 0 {
		t.Error("Accuracy with no prefetches should be 0")
	}
	if r.Coverage(0) != 0 {
		t.Error("Coverage with no baseline misses should be 0")
	}
}

func BenchmarkRunNoPrefetch(b *testing.B) {
	accs := seqTrace(100_000, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(DefaultConfig(), accs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRunDependenceChainsSerialize(t *testing.T) {
	// The same cold miss stream, once independent and once as one serial
	// chain: the chain must take longer (lower IPC).
	free := seqTrace(2000, 20)
	chained := seqTrace(2000, 20)
	for i := range chained {
		chained[i].Chain = 1
	}
	fRes, err := Run(DefaultConfig(), free, nil)
	if err != nil {
		t.Fatal(err)
	}
	cRes, err := Run(DefaultConfig(), chained, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cRes.IPC >= fRes.IPC {
		t.Errorf("chained IPC %.3f >= independent IPC %.3f", cRes.IPC, fRes.IPC)
	}
}

func TestRunChainPrefetchingHelps(t *testing.T) {
	// Prefetching a serial chain's future nodes shortens each hop.
	accs := seqTrace(3000, 20)
	for i := range accs {
		accs[i].Chain = 1
	}
	var pfs []trace.Prefetch
	for i := 0; i+4 < len(accs); i++ {
		pfs = append(pfs, trace.Prefetch{ID: accs[i].ID, Addr: accs[i+4].Addr})
	}
	base, err := Run(DefaultConfig(), accs, nil)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Run(DefaultConfig(), accs, pfs)
	if err != nil {
		t.Fatal(err)
	}
	if pf.IPC <= base.IPC*1.2 {
		t.Errorf("chain prefetching IPC %.3f, want >> base %.3f", pf.IPC, base.IPC)
	}
}

func TestRunPrefetchWithUnknownTriggerIDs(t *testing.T) {
	// Prefetch entries whose IDs fall between trace accesses must still be
	// consumed without error.
	accs := seqTrace(100, 20)
	pfs := []trace.Prefetch{
		{ID: accs[0].ID + 1, Addr: 1 << 30},
		{ID: accs[50].ID + 3, Addr: 2 << 30},
	}
	res, err := Run(DefaultConfig(), accs, pfs)
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefIssued != 2 {
		t.Errorf("PrefIssued = %d, want 2", res.PrefIssued)
	}
}

func TestRunDropsPrefetchesUnderPressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrefetchDropDepth = 1 // drop aggressively
	accs := seqTrace(2000, 5) // dense miss stream keeps the queue busy
	var pfs []trace.Prefetch
	for i := 0; i < len(accs); i++ {
		pfs = append(pfs, trace.Prefetch{ID: accs[i].ID, Addr: 1<<40 + uint64(i)*trace.BlockBytes})
	}
	res, err := Run(cfg, accs, pfs)
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefDropped == 0 {
		t.Error("no prefetches dropped despite drop depth 1")
	}
}

func TestRunLongerDRAMLatencyLowersIPC(t *testing.T) {
	accs := seqTrace(2000, 20)
	fast := DefaultConfig()
	slow := DefaultConfig()
	slow.DRAM.TCAS *= 4
	slow.DRAM.TRCD *= 4
	slow.DRAM.TRP *= 4
	fRes, err := Run(fast, accs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sRes, err := Run(slow, accs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sRes.IPC >= fRes.IPC {
		t.Errorf("slower DRAM IPC %.3f >= faster %.3f", sRes.IPC, fRes.IPC)
	}
}

// BenchmarkRunWithPrefetch replays the same stream with a perfect next-use
// prefetch file — the late-prefetch/inflight-fill machinery on its hot path.
func BenchmarkRunWithPrefetch(b *testing.B) {
	accs := seqTrace(100_000, 30)
	pfs := make([]trace.Prefetch, 0, len(accs))
	for i := 0; i+1 < len(accs); i++ {
		pfs = append(pfs, trace.Prefetch{ID: accs[i].ID, Addr: accs[i+1].Addr})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(DefaultConfig(), accs, pfs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunMultiShared exercises the shared-LLC contention path: two
// cores with disjoint streams through one LLC and memory controller.
func BenchmarkRunMultiShared(b *testing.B) {
	a := seqTrace(50_000, 30)
	c := seqTrace(50_000, 30)
	for i := range c {
		c[i].Addr += 1 << 42
	}
	cores := [][]trace.Access{a, c}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runMulti(DefaultConfig(), cores, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunTelemetry is BenchmarkRunNoPrefetch with the metric handles
// bound, documenting the enabled-telemetry overhead of the simulator (the
// per-access cost is one pointer load in the DRAM path plus an end-of-run
// flush; the acceptance bar is <5%).
func BenchmarkRunTelemetry(b *testing.B) {
	EnableTelemetry(telemetry.NewRegistry())
	defer EnableTelemetry(nil)
	accs := seqTrace(100_000, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(DefaultConfig(), accs, nil); err != nil {
			b.Fatal(err)
		}
	}
}
