package runner

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pathfinder/internal/prefetch"
	"pathfinder/internal/trace"
	"pathfinder/internal/workload"
)

// echo is a learning stand-in for PATHFINDER: its advice depends only on
// the accesses it has seen, sometimes exceeds the budget, and every
// Advise is counted. onFirst, when set, runs at its first Advise.
type echo struct {
	advised *atomic.Int64
	onFirst func()
	last, n uint64
	buf     []uint64
}

func (e *echo) Name() string { return "Echo" }

func (e *echo) Advise(a trace.Access, budget int) []uint64 {
	if e.n == 0 && e.onFirst != nil {
		e.onFirst()
	}
	e.advised.Add(1)
	e.n++
	blk := a.Block()
	out := e.buf[:0]
	for k := uint64(0); k < (e.n+e.last)%4; k++ {
		out = append(out, trace.BlockAddr(blk+1+k*(e.last%5)))
	}
	e.last = blk
	e.buf = out
	return out
}

// sharedEcho is a Shared stand-in over echo under key.
func sharedEcho(key string, advised *atomic.Int64) *prefetch.Shared {
	return prefetch.NewShared("Echo", key, func() (prefetch.Prefetcher, error) {
		return &echo{advised: advised}, nil
	})
}

// TestSharedMemberRecordedOncePerKey runs a lineup of cells holding shared
// members — alone, in a fixed-priority ensemble, in a dynamic ensemble,
// under a second key and at a second budget — over two traces. The member
// is advised once per access per (trace, key, budget) at any parallelism,
// and every cell equals both the same job evaluated alone on a fresh
// runner and the job built around a live member.
func TestSharedMemberRecordedOncePerKey(t *testing.T) {
	const loads = 1500
	traces := []string{"cc-5", "bfs-10"}
	lineup := []struct {
		label  string
		key    string
		budget int
		around func(m prefetch.Prefetcher) prefetch.Prefetcher
	}{
		{"alone", "a", 0, func(m prefetch.Prefetcher) prefetch.Prefetcher { return m }},
		{"ensemble", "a", 0, func(m prefetch.Prefetcher) prefetch.Prefetcher {
			return prefetch.NewEnsemble(m, &prefetch.NextLine{})
		}},
		{"dynamic", "a", 0, func(m prefetch.Prefetcher) prefetch.Prefetcher {
			return prefetch.NewDynamicEnsemble(m, prefetch.NewSISB(), &prefetch.NextLine{})
		}},
		{"other key", "b", 0, func(m prefetch.Prefetcher) prefetch.Prefetcher { return m }},
		{"budget 4", "a", 4, func(m prefetch.Prefetcher) prefetch.Prefetcher {
			return prefetch.NewEnsemble(m, &prefetch.NextLine{})
		}},
	}
	const perTrace = 3 // distinct (key, budget) pairs in the lineup

	var advised, liveAdvised atomic.Int64
	var shared, live []Job
	for _, tr := range traces {
		for _, l := range lineup {
			job := Job{Trace: tr, Label: l.label, Budget: l.budget}
			job.New = func() (prefetch.Prefetcher, error) { return l.around(sharedEcho(l.key, &advised)), nil }
			shared = append(shared, job)
			job.New = func() (prefetch.Prefetcher, error) { return l.around(&echo{advised: &liveAdvised}), nil }
			live = append(live, job)
		}
	}
	for _, par := range []int{1, 4} {
		advised.Store(0)
		got, err := New(Config{Loads: loads, Parallelism: par}).Run(context.Background(), shared)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if want := int64(len(traces) * perTrace * loads); advised.Load() != want {
			t.Errorf("parallelism %d: shared members advised %d times, want %d", par, advised.Load(), want)
		}
		for i := range shared {
			alone, err := New(Config{Loads: loads}).Eval(context.Background(), shared[i])
			if err != nil {
				t.Fatal(err)
			}
			advisedLive, err := New(Config{Loads: loads}).Eval(context.Background(), live[i])
			if err != nil {
				t.Fatal(err)
			}
			if !sameCell(got[i], alone) || !sameCell(got[i], advisedLive) {
				t.Errorf("parallelism %d, cell %d (%s/%s): grid %+v, alone %+v, live %+v",
					par, i, got[i].Trace, got[i].Prefetcher, got[i].Metrics, alone.Metrics, advisedLive.Metrics)
			}
		}
	}
}

// TestSharedReplayOutOfStepFailsCell declares three different-length
// record sets under one SourceKey. The shorter and longer ones replay the
// first one's recording out of step, and their cells fail instead of
// taking its advice. Declared without a SourceKey, the same three cells
// share nothing and succeed.
func TestSharedReplayOutOfStepFailsCell(t *testing.T) {
	accs, err := workload.Generate("cc-5", 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	var advised atomic.Int64
	job := func(n int) Job {
		return Job{Trace: "cc-5", Accs: accs[:n], SourceKey: "cc-5 prefix", New: func() (prefetch.Prefetcher, error) {
			return prefetch.NewEnsemble(sharedEcho("a", &advised), &prefetch.NextLine{}), nil
		}}
	}
	r := New(Config{})
	if _, err := r.Eval(context.Background(), job(300)); err != nil {
		t.Fatal(err)
	}
	for n, want := range map[int]string{400: "past its recording of 300", 200: "after 200 of 300"} {
		if _, err := r.Eval(context.Background(), job(n)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%d records replaying 300: err = %v, want one containing %q", n, err, want)
		}
	}
	if advised.Load() != 300 {
		t.Errorf("member advised %d times, want 300 (the one recording)", advised.Load())
	}

	// Without a SourceKey the records have no identity, so nothing is
	// shared: each cell advises its own member over its own records.
	advised.Store(0)
	for _, n := range []int{300, 400, 200} {
		anon := job(n)
		anon.SourceKey = ""
		if _, err := r.Eval(context.Background(), anon); err != nil {
			t.Errorf("%d records without a SourceKey: %v", n, err)
		}
	}
	if advised.Load() != 900 {
		t.Errorf("members without a SourceKey advised %d times, want 900", advised.Load())
	}
}

// TestSharedRecordingCancelledBuilderRebuilt cancels the cell building a
// recording while a second cell waits on it: the waiter, whose context is
// live, builds the recording itself and evaluates the cell exactly.
func TestSharedRecordingCancelledBuilderRebuilt(t *testing.T) {
	const loads = 3000 // past the recorder's first context poll
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	var advised, builds atomic.Int64
	blocking := make(chan struct{})
	job := Job{Trace: "cc-5", New: func() (prefetch.Prefetcher, error) {
		return prefetch.NewShared("Echo", "a", func() (prefetch.Prefetcher, error) {
			e := &echo{advised: &advised}
			if builds.Add(1) == 1 {
				e.onFirst = func() { close(blocking); <-ctxA.Done() }
			}
			return e, nil
		}), nil
	}}
	r := New(Config{Loads: loads})
	errA := make(chan error, 1)
	go func() {
		_, err := r.Eval(ctxA, job)
		errA <- err
	}()
	<-blocking
	type outcome struct {
		res Result
		err error
	}
	b := make(chan outcome, 1)
	go func() {
		res, err := r.Eval(context.Background(), job)
		b <- outcome{res, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the second cell park on the build
	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("builder cell: err = %v, want context.Canceled", err)
	}
	var got outcome
	select {
	case got = <-b:
	case <-time.After(10 * time.Second):
		t.Fatal("waiting cell never finished")
	}
	if got.err != nil {
		t.Fatalf("waiting cell inherited the builder's cancellation: %v", got.err)
	}
	if builds.Load() != 2 {
		t.Errorf("%d builds, want 2 (the cancelled one and the waiter's)", builds.Load())
	}
	want, err := New(Config{Loads: loads}).Eval(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCell(got.res, want) {
		t.Errorf("rebuilt cell %+v, fresh runner %+v", got.res.Metrics, want.Metrics)
	}
}
