package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// The whole design rests on nil handles being no-ops: disabled
	// telemetry wires nil pointers everywhere and pays one branch.
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry

	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	g.Set(3)
	g.Add(-1)
	g.SetMax(7)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	h.Observe(9)
	h.ObserveN(9, 4)
	if h.Count() != 0 {
		t.Fatal("nil histogram count")
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot")
	}
	if r.Names() != nil {
		t.Fatal("nil registry names")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	c.Inc()
	c.Add(9)
	if got := c.Value(); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	if r.Counter("hits") != c {
		t.Fatal("get-or-create must return the same counter")
	}

	g := r.Gauge("depth")
	g.Set(5)
	g.Add(-2)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}
	g.SetMax(10)
	g.SetMax(7) // lower: no effect
	if got := g.Value(); got != 10 {
		t.Fatalf("gauge after SetMax = %d, want 10", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for i := uint64(1); i <= 100; i++ {
		h.Observe(i)
	}
	s := h.snapshot()
	if s.Count != 100 || s.Sum != 5050 {
		t.Fatalf("count/sum = %d/%d, want 100/5050", s.Count, s.Sum)
	}
	if s.Mean != 50.5 {
		t.Fatalf("mean = %v, want 50.5", s.Mean)
	}
	// Power-of-two bucket bounds: the p50 sample (the 50th) lands in the
	// bucket with upper bound 63; p99 in the bucket with bound 127.
	if s.P50 != 63 {
		t.Fatalf("p50 = %d, want 63", s.P50)
	}
	if s.P99 != 127 {
		t.Fatalf("p99 = %d, want 127", s.P99)
	}
	var n uint64
	for _, b := range s.Buckets {
		n += b.Count
	}
	if n != 100 {
		t.Fatalf("bucket total = %d, want 100", n)
	}

	// ObserveN is equivalent to n Observes.
	h2 := r.Histogram("lat2")
	h2.ObserveN(16, 3)
	s2 := h2.snapshot()
	if s2.Count != 3 || s2.Sum != 48 {
		t.Fatalf("ObserveN count/sum = %d/%d, want 3/48", s2.Count, s2.Sum)
	}
}

func TestHistogramZeroValue(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("z")
	h.Observe(0)
	s := h.snapshot()
	if s.Count != 1 || len(s.Buckets) != 1 || s.Buckets[0].Le != 0 {
		t.Fatalf("zero sample snapshot: %+v", s)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(2)
	r.Gauge("b").Set(-3)
	r.Histogram("c").Observe(100)
	blob, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a"] != 2 || back.Gauges["b"] != -3 || back.Histograms["c"].Count != 1 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz")
	r.Gauge("aa")
	r.Histogram("mm")
	got := r.Names()
	want := []string{"aa", "mm", "zz"}
	if len(got) != len(want) {
		t.Fatalf("names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(int64(i))
				r.Histogram("h").Observe(uint64(i))
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestGlobalEnableDisable(t *testing.T) {
	defer Disable()
	if Get() != nil {
		t.Fatal("telemetry must start disabled")
	}
	if GlobalSnapshot() != nil {
		t.Fatal("disabled global snapshot must be nil")
	}
	r := Enable()
	if Get() != r {
		t.Fatal("Enable must install the registry")
	}
	r.Counter("x").Inc()
	if snap := GlobalSnapshot(); snap == nil || snap.Counters["x"] != 1 {
		t.Fatalf("global snapshot: %+v", GlobalSnapshot())
	}
	Disable()
	if Get() != nil {
		t.Fatal("Disable must clear the registry")
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for sampler output.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestSamplerStreamsJSONL(t *testing.T) {
	r := NewRegistry()
	r.Counter("ticks").Add(42)
	var buf syncBuffer
	s := NewSampler(r, &buf, 10*time.Millisecond)
	time.Sleep(50 * time.Millisecond)
	s.Stop()
	s.Stop() // idempotent

	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	lines := 0
	for sc.Scan() {
		var snap Snapshot
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		if snap.TSNanos == 0 {
			t.Fatal("sampler snapshot missing timestamp")
		}
		if snap.Counters["ticks"] != 42 {
			t.Fatalf("counter in snapshot = %d", snap.Counters["ticks"])
		}
		lines++
	}
	// At least the final Stop flush must have landed.
	if lines < 1 {
		t.Fatal("no sampler output")
	}
}

func TestServeMetricsAndDebugPages(t *testing.T) {
	defer Disable()
	r := Enable()
	r.Counter("served").Add(7)

	addr, shutdown, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics")), &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if snap.Counters["served"] != 7 {
		t.Fatalf("/metrics counters: %+v", snap.Counters)
	}

	vars := get("/debug/vars")
	if !strings.Contains(vars, `"pathfinder"`) || !strings.Contains(vars, `"served"`) {
		t.Fatalf("/debug/vars missing pathfinder var: %.200s", vars)
	}

	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatalf("/debug/pprof/ index unexpected: %.200s", idx)
	}
}

func BenchmarkCounterDisabled(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
	if c.Value() == 0 {
		b.Fatal("unexpected")
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}

func ExampleRegistry() {
	r := NewRegistry()
	r.Counter("spikes").Add(12)
	snap := r.Snapshot()
	fmt.Println(snap.Counters["spikes"])
	// Output: 12
}
