package sim

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"

	"pathfinder/internal/trace"
)

// engineTestPfs builds a lookahead prefetch file for a trace, so the
// Engine tests exercise the inflight bookkeeping and prefetch counters.
func engineTestPfs(accs []trace.Access) []trace.Prefetch {
	pfs := make([]trace.Prefetch, 0, len(accs))
	for i := 0; i+8 < len(accs); i++ {
		pfs = append(pfs, trace.Prefetch{ID: accs[i].ID, Addr: accs[i+8].Addr})
	}
	return pfs
}

// TestEngineReuseDeterministic pins the arena-reuse contract: a reused
// Engine — including one whose state was dirtied by a different trace in
// between — must reproduce the one-shot package Run bit for bit.
func TestEngineReuseDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Warmup = 200
	accsA := seqTrace(2000, 10)
	pfsA := engineTestPfs(accsA)
	accsB := offsetTrace(1500, 7, 64)

	want, err := Run(cfg, accsA, pfsA)
	if err != nil {
		t.Fatal(err)
	}
	if want.PrefIssued == 0 || want.PrefUseful == 0 {
		t.Fatalf("degenerate pin: %+v", want)
	}

	eng := newEngine(cfg)
	for round := 0; round < 3; round++ {
		got, err := eng.RunCtx(context.Background(), accsA, pfsA)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got != want {
			t.Fatalf("round %d diverged from one-shot Run:\n got %+v\nwant %+v", round, got, want)
		}
		// Dirty the machine with an unrelated trace before the next round.
		if _, err := eng.RunCtx(context.Background(), accsB, nil); err != nil {
			t.Fatalf("round %d dirty run: %v", round, err)
		}
	}
}

// TestEngineReuseAcrossCoreCounts checks the pipeline arena grows and
// shrinks correctly when consecutive runs use different core counts.
func TestEngineReuseAcrossCoreCounts(t *testing.T) {
	cfg := DefaultConfig()
	single := seqTrace(1000, 10)
	duoA := seqTrace(800, 10)
	duoB := offsetTrace(800, 10, 32)

	wantSingle, err := Run(cfg, single, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantDuo, err := runMulti(cfg, [][]trace.Access{duoA, duoB}, nil)
	if err != nil {
		t.Fatal(err)
	}

	eng := newEngine(cfg)
	for round := 0; round < 2; round++ {
		got, err := eng.RunCtx(context.Background(), single, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != wantSingle {
			t.Fatalf("single-core reuse diverged:\n got %+v\nwant %+v", got, wantSingle)
		}
		gotDuo, err := eng.RunMultiStreamCtx(context.Background(),
			[]trace.Source{trace.NewSliceSource(duoA), trace.NewSliceSource(duoB)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range gotDuo {
			if gotDuo[i] != wantDuo[i] {
				t.Fatalf("dual-core reuse core %d diverged:\n got %+v\nwant %+v", i, gotDuo[i], wantDuo[i])
			}
		}
	}
}

// TestEngineReuseAfterError checks a run that fails validation or replay
// leaves the Engine reusable (state is cleared at the start of each run,
// not the end).
func TestEngineReuseAfterError(t *testing.T) {
	cfg := DefaultConfig()
	accs := seqTrace(1000, 10)
	want, err := Run(cfg, accs, nil)
	if err != nil {
		t.Fatal(err)
	}

	eng := newEngine(cfg)
	// Mid-replay failure: non-increasing IDs abort after state was dirtied.
	bad := []trace.Access{{ID: 5, Addr: 0}, {ID: 5, Addr: 64}}
	if _, err := eng.RunCtx(context.Background(), bad, nil); err == nil {
		t.Fatal("engine accepted duplicate IDs")
	}
	got, err := eng.RunCtx(context.Background(), accs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("post-error reuse diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestEngineRejectsWideCache checks that a level wider than the packed
// recency word (16 ways) is a configuration error, not a panic.
func TestEngineRejectsWideCache(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LLCWays = 17
	_, err := Run(cfg, seqTrace(1000, 10), nil)
	if err == nil || !strings.Contains(err.Error(), "16 ways") {
		t.Fatalf("17-way LLC: err = %v, want an associativity error", err)
	}
}

// TestAcquireEngineSurvivesGC pins that a released engine stays pooled
// until it is acquired again: two garbage collections (which empty a
// sync.Pool) and an acquisition from another goroutine (which a sync.Pool
// serves from another P's slot) must still get the same engine back
// instead of a rebuilt machine. The configuration is one no other test
// uses, so tests running in parallel cannot take its engine.
func TestAcquireEngineSurvivesGC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROB = 123
	eng, release := AcquireEngine(cfg)
	release()
	runtime.GC()
	runtime.GC()
	got := make(chan *Engine)
	go func() {
		e, release := AcquireEngine(cfg)
		release()
		got <- e
	}()
	if e := <-got; e != eng {
		t.Fatal("AcquireEngine rebuilt a released engine after two GCs")
	}
}

// TestAcquireEngineNeverShared hammers one configuration's free list from
// several goroutines at once: an engine must never be handed to a second
// holder before the first releases it. Run under -race it also checks the
// list's locking.
func TestAcquireEngineNeverShared(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROB = 124
	var mu sync.Mutex
	inUse := make(map[*Engine]bool)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				eng, release := AcquireEngine(cfg)
				mu.Lock()
				if inUse[eng] {
					t.Error("AcquireEngine handed out an engine already in use")
				}
				inUse[eng] = true
				mu.Unlock()
				runtime.Gosched()
				mu.Lock()
				inUse[eng] = false
				mu.Unlock()
				release()
			}
		}()
	}
	wg.Wait()
	if len(inUse) > 4 {
		t.Errorf("%d engines built for at most 4 concurrent holders", len(inUse))
	}
}
