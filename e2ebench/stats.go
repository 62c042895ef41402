package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowed splits xs into consecutive windows of n samples, takes the
// q-quantile of each, and returns their median: a tail that one stalled
// window cannot move. A final window shorter than n/2 is dropped.
func windowed(xs []float64, n int, q float64) float64 {
	var per []float64
	for i := 0; i < len(xs); i += n {
		w := xs[i:min(i+n, len(xs))]
		if len(w) < n/2 && len(per) > 0 {
			break
		}
		per = append(per, quantile(w, q))
	}
	return median(per)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapSampler tracks the peak Go heap (bytes in live and not yet swept
// heap objects) by polling runtime/metrics, which does not stop the world.
// With a window it also keeps each full window's peak (or the one partial
// window of a run shorter than a window).
type heapSampler struct {
	peak   atomic.Uint64
	window time.Duration
	stop   chan struct{}
	done   chan struct{}
	// windows holds the per-window peaks in MB; read it only after close.
	windows []float64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func readHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler(window time.Duration) *heapSampler {
	h := &heapSampler{window: window, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapObjects}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		var winPeak uint64
		winStart := time.Now()
		for {
			v := readHeap(s)
			h.observe(v)
			if h.window > 0 {
				winPeak = max(winPeak, v)
				if time.Since(winStart) >= h.window {
					h.windows = append(h.windows, float64(winPeak)/(1<<20))
					winPeak, winStart = 0, time.Now()
				}
			}
			select {
			case <-h.stop:
				if h.window > 0 && len(h.windows) == 0 {
					h.windows = append(h.windows, float64(winPeak)/(1<<20))
				}
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) observe(v uint64) {
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// take returns the peak since the last take (or start) in MB and restarts
// tracking from the current heap.
func (h *heapSampler) take() float64 {
	now := readHeap([]metrics.Sample{{Name: heapObjects}})
	h.observe(now)
	p := h.peak.Swap(now)
	return float64(p) / (1 << 20)
}

// close stops the sampler and waits for its goroutine.
func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// goCounters are the Go runtime's cumulative allocation and GC counts.
type goCounters struct{ allocBytes, gcCycles uint64 }

func readGoCounters() goCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return goCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// setGoDelta reports the allocation and GC work done since before.
func setGoDelta(o *outcome, before goCounters) {
	after := readGoCounters()
	o.set("go.alloc_mb", float64(after.allocBytes-before.allocBytes)/(1<<20))
	o.set("go.gc_cycles", float64(after.gcCycles-before.gcCycles))
}

// timeSetup runs setup n times and returns the last run's result with the
// median duration in seconds; every earlier result is passed to discard.
// A garbage collection afterwards keeps set-up garbage out of the timed
// phase.
func timeSetup[T any](n int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var (
		last T
		ds   []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
		last = v
	}
	runtime.GC()
	return last, median(ds), nil
}
