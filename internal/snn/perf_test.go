package snn

import (
	"reflect"
	"testing"

	"pathfinder/internal/telemetry"
)

// Performance tests for the event-driven tick engine: micro-benchmarks for
// BENCH_snn.json (`make bench-micro`), the allocation-regression guard, and
// equivalence tests pinning the fast paths to the always-tick reference
// behaviour. Headline before/after numbers live in docs/performance.md.

// BenchmarkPresent measures one full rate-coded input interval on the
// Table 4 configuration in both learning modes, through the
// zero-allocation PresentInto path.
func BenchmarkPresent(b *testing.B) {
	for _, learn := range []struct {
		name string
		on   bool
	}{{"learn", true}, {"infer", false}} {
		b.Run("rate/"+learn.name, func(b *testing.B) {
			n, err := New(testConfig())
			if err != nil {
				b.Fatal(err)
			}
			p := pattern(1, 2, 4)
			var res Result
			if err := n.PresentInto(&res, p, learn.on); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := n.PresentInto(&res, p, learn.on); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPresentOneTick(b *testing.B) {
	n, err := New(testConfig())
	if err != nil {
		b.Fatal(err)
	}
	p := pattern(1, 2, 4)
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.PresentOneTickInto(&res, p, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPresentTelemetry is BenchmarkPresent with the metric handles
// bound, documenting the enabled-telemetry overhead (the acceptance bar is
// <5% over the disabled path; the flush is one locals-to-atomics transfer
// per presentation, so the delta is expected to be noise-level).
func BenchmarkPresentTelemetry(b *testing.B) {
	EnableTelemetry(telemetry.NewRegistry())
	defer EnableTelemetry(nil)
	cfg := testConfig()
	n, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := pattern(1, 2, 4)
	var res Result
	if err := n.PresentInto(&res, p, true); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.PresentInto(&res, p, true); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPresentSteadyStateZeroAlloc is the allocation-regression guard: once
// the scratch buffers have warmed up, PresentInto must not touch the heap.
func TestPresentSteadyStateZeroAlloc(t *testing.T) {
	n, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := pattern(1, 2, 4)
	var res Result
	for i := 0; i < 20; i++ {
		if err := n.PresentInto(&res, p, true); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := n.PresentInto(&res, p, true); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("steady-state PresentInto allocates %v per run, want 0", avg)
	}
}

// TestPresentTelemetryZeroAllocAndIdentical checks both halves of the
// observation contract at once: with metric handles bound, PresentInto
// still allocates nothing in steady state, and its results stay
// bit-identical to an unobserved twin network.
func TestPresentTelemetryZeroAllocAndIdentical(t *testing.T) {
	reg := telemetry.NewRegistry()
	EnableTelemetry(reg)
	defer EnableTelemetry(nil)

	cfg := testConfig()
	observed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	for i := 0; i < 20; i++ {
		if err := observed.PresentInto(&res, pattern(1, 2, 4), true); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := observed.PresentInto(&res, pattern(1, 2, 4), true); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("telemetry-on PresentInto allocates %v per run, want 0", avg)
	}
	if reg.Counter("snn.presents").Value() == 0 {
		t.Error("telemetry recorded no presentations")
	}

	// Bit-identical trajectories: a fresh observed network against a fresh
	// unobserved one, same seed, same inputs.
	EnableTelemetry(nil)
	plain, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	EnableTelemetry(reg)
	traced, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		p := pattern(1+i%4, 5, 8+i%3)
		EnableTelemetry(nil)
		a, err := plain.Present(p, true)
		if err != nil {
			t.Fatal(err)
		}
		EnableTelemetry(reg)
		b, err := traced.Present(p, true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("interval %d: telemetry-off %+v != telemetry-on %+v", i, a, b)
		}
	}
}

func TestPresentOneTickSteadyStateZeroAlloc(t *testing.T) {
	n, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := pattern(1, 2, 4)
	var res Result
	if err := n.PresentOneTickInto(&res, p, true); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := n.PresentOneTickInto(&res, p, true); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("steady-state PresentOneTickInto allocates %v per run, want 0", avg)
	}
}

// TestResultSpikesRetained is the regression test for the Result.Spikes
// aliasing bug: a Result held across later Present calls must keep its
// spike counts instead of being zeroed by the next interval's state reset.
func TestResultSpikesRetained(t *testing.T) {
	n, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := pattern(1, 2, 4), pattern(3, 5, 7)
	first, err := n.Present(p1, true)
	if err != nil {
		t.Fatal(err)
	}
	saved := append([]int(nil), first.Spikes...)
	for i := 0; i < 5; i++ {
		if _, err := n.Present(p2, true); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(first.Spikes, saved) {
		t.Errorf("retained Result.Spikes clobbered by later Present: got %v, want %v", first.Spikes, saved)
	}
}

// TestPresentIntoMatchesPresent pins the wrapper and the reusing path to
// each other, including Spikes reuse across differing inputs.
func TestPresentIntoMatchesPresent(t *testing.T) {
	cfg := testConfig()
	na, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	for i := 0; i < 10; i++ {
		p := pattern(1+i%3, 4, 6+i%2)
		a, err := na.Present(p, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := nb.PresentInto(&res, p, true); err != nil {
			t.Fatal(err)
		}
		if a.Winner != res.Winner || a.FirstFireTick != res.FirstFireTick || !reflect.DeepEqual(a.Spikes, res.Spikes) {
			t.Fatalf("iteration %d: Present %+v != PresentInto %+v", i, a, res)
		}
	}
}

// TestMonitorDoesNotChangeDynamics runs identical networks with and without
// a monitor attached. A monitor forces the engine through every tick
// (quiescence fast-forwarding off), so this pins the fast-forward path to
// the tick-by-tick reference trajectory — including rate-coded RNG state,
// which must advance identically for the later intervals to agree.
func TestMonitorDoesNotChangeDynamics(t *testing.T) {
	cfg := testConfig()
	plain, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	monitored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var m Monitor
	monitored.SetMonitor(&m)
	for i := 0; i < 30; i++ {
		p := pattern(1+i%4, 5, 8+i%3)
		a, err := plain.Present(p, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := monitored.Present(p, true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("interval %d: fast path %+v != monitored path %+v", i, a, b)
		}
	}
	for j := 0; j < cfg.Neurons; j++ {
		if plain.Theta(j) != monitored.Theta(j) {
			t.Fatalf("theta[%d] diverged", j)
		}
	}
	for i := 0; i < cfg.InputSize; i++ {
		for j := 0; j < cfg.Neurons; j++ {
			if plain.Weight(i, j) != monitored.Weight(i, j) {
				t.Fatalf("weight[%d,%d] diverged", i, j)
			}
		}
	}
}

// TestAppendFiredNeurons checks the scratch-reusing variant against the
// allocating one, including appending after existing elements.
func TestAppendFiredNeurons(t *testing.T) {
	r := Result{Spikes: []int{0, 3, 1, 0, 3, 2}}
	want := r.FiredNeurons()
	scratch := make([]int, 0, 8)
	got := r.AppendFiredNeurons(scratch)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AppendFiredNeurons = %v, want %v", got, want)
	}
	pre := []int{99}
	got = r.AppendFiredNeurons(pre)
	if got[0] != 99 || !reflect.DeepEqual(got[1:], want) {
		t.Errorf("AppendFiredNeurons with prefix = %v, want [99]+%v", got, want)
	}
}
