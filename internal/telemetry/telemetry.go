// Package telemetry is the observability layer of the whole stack: an
// atomic, allocation-free counter/gauge/histogram registry that the hot
// engines (internal/snn, internal/sim, internal/runner, internal/prefetch)
// report into when — and only when — a registry has been installed.
//
// It follows the same enable-by-config, nil-checked design as
// internal/fault: the default is no registry at all, every metric handle
// is a nil pointer, and every record site costs exactly one branch (the
// nil check inlined into Add/Set/Observe). Observation must never perturb
// dynamics: metrics are plain atomic integers, so enabling telemetry
// changes no floating-point operation, no RNG draw, and no allocation on
// the simulation paths — the golden-hash and differential suites pass
// with telemetry on and off (see docs/observability.md).
//
// A Registry snapshots into a Snapshot (JSON-ready), streams periodic
// JSONL snapshots through a Sampler, and serves live over HTTP
// (expvar + pprof) via Serve.
package telemetry

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. All methods are
// safe on a nil receiver (they do nothing / return zero), so code holding
// a nil *Counter — telemetry disabled — pays one predictable branch.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (zero on a nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. Like Counter, it is nil-safe.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// SetMax raises the gauge to n if n is larger — a high-water mark.
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value (zero on a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of a Histogram: values are
// bucketed by bit length (bucket i holds values v with bits.Len64(v) == i,
// i.e. powers of two), which covers the full uint64 range with no
// configuration and no allocation.
const histBuckets = 65

// Histogram is a power-of-two-bucketed distribution of uint64 samples
// (latencies in nanoseconds, depths, degrees). Observe is allocation-free
// and nil-safe.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// ObserveN records n identical samples in one shot (used by flush sites
// that accumulated locally during a run).
func (h *Histogram) ObserveN(v, n uint64) {
	if h == nil || n == 0 {
		return
	}
	h.count.Add(n)
	h.sum.Add(v * n)
	h.buckets[bits.Len64(v)].Add(n)
}

// Count returns the number of samples observed (zero on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// snapshot captures the histogram's current state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	var cum uint64
	p50, p90, p99 := s.Count/2, s.Count*9/10, s.Count*99/100
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		// The bucket upper bound: largest value with bit length i.
		le := uint64(0)
		if i > 0 {
			le = 1<<uint(i) - 1
		}
		s.Buckets = append(s.Buckets, HistogramBucket{Le: le, Count: n})
		prev := cum
		cum += n
		if prev <= p50 && p50 < cum {
			s.P50 = le
		}
		if prev <= p90 && p90 < cum {
			s.P90 = le
		}
		if prev <= p99 && p99 < cum {
			s.P99 = le
		}
	}
	return s
}

// HistogramBucket is one non-empty bucket of a snapshot: Count samples
// with value <= Le (and greater than the previous bucket's Le).
type HistogramBucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is the JSON-ready state of one histogram. Quantiles
// are bucket upper bounds (within 2x of the true value).
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     uint64            `json:"sum"`
	Mean    float64           `json:"mean"`
	P50     uint64            `json:"p50"`
	P90     uint64            `json:"p90"`
	P99     uint64            `json:"p99"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every metric in a registry, in the
// shape the JSONL sampler streams and RunReport embeds.
type Snapshot struct {
	// TSNanos is the sampler's wall-clock timestamp in Unix nanoseconds;
	// zero for snapshots taken outside a sampler (determinism: nothing in
	// the engines reads the clock for telemetry).
	TSNanos    int64                        `json:"ts_nanos,omitempty"`
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Registry is a named collection of metrics. Metric handles are created
// once (get-or-create by name) and then operated on lock-free; Snapshot
// takes the registration lock only to walk the name maps. All methods are
// nil-safe: a nil *Registry hands out nil handles, which record nothing.
type Registry struct {
	mu    sync.Mutex
	ctrs  map[string]*Counter
	gags  map[string]*Gauge
	hists map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:  make(map[string]*Counter),
		gags:  make(map[string]*Gauge),
		hists: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if absent (nil on a nil
// registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if absent.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gags[name]
	if !ok {
		g = &Gauge{}
		r.gags[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if absent.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot returns a point-in-time copy of every registered metric (nil
// on a nil registry).
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Counters:   make(map[string]uint64, len(r.ctrs)),
		Gauges:     make(map[string]int64, len(r.gags)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.ctrs {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gags {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Names returns every registered metric name, sorted — handy for tests
// and for a stable human-readable dump.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.ctrs)+len(r.gags)+len(r.hists))
	for n := range r.ctrs {
		names = append(names, n)
	}
	for n := range r.gags {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// global is the process-wide registry installed by Enable; nil (off) by
// default so uninstrumented runs pay a single pointer load per flush site.
var global atomic.Pointer[Registry]

// Enable installs a fresh global registry and returns it. Calling Enable
// again replaces the registry (counters restart from zero). Instrumented
// packages re-bind their handles via their own EnableTelemetry functions —
// see pathfinder.EnableTelemetry for the one-call wiring of every layer.
func Enable() *Registry {
	r := NewRegistry()
	global.Store(r)
	return r
}

// Disable removes the global registry. Metric handles already bound keep
// working (they still record into the orphaned registry) until their
// packages re-bind; Disable exists mainly for tests.
func Disable() { global.Store(nil) }

// Get returns the global registry, or nil when telemetry is off.
func Get() *Registry { return global.Load() }

// GlobalSnapshot snapshots the global registry (nil when telemetry is
// off) — the "final telemetry block" RunReport embeds.
func GlobalSnapshot() *Snapshot { return global.Load().Snapshot() }
