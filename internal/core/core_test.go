package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"

	"pathfinder/internal/snn"
	"pathfinder/internal/trace"
	"pathfinder/internal/workload"
)

func TestNewEncoderValidation(t *testing.T) {
	if _, err := NewEncoder(126, 3); err == nil {
		t.Error("accepted even delta range")
	}
	if _, err := NewEncoder(1, 3); err == nil {
		t.Error("accepted delta range < 3")
	}
	if _, err := NewEncoder(127, 0); err == nil {
		t.Error("accepted zero history")
	}
}

func TestEncoderGeometry(t *testing.T) {
	e, err := NewEncoder(127, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e.Center() != 63 || e.MaxDelta() != 63 || e.InputSize() != 381 {
		t.Errorf("geometry: center=%d max=%d size=%d", e.Center(), e.MaxDelta(), e.InputSize())
	}
	if !e.InRange(63) || !e.InRange(-63) || e.InRange(64) || e.InRange(-64) {
		t.Error("InRange bounds wrong")
	}
}

func TestEncodePlain(t *testing.T) {
	e, _ := NewEncoder(127, 3)
	out := make([]float64, e.InputSize())
	if err := e.Encode([]int{1, 2, 3}, out); err != nil {
		t.Fatal(err)
	}
	lit := 0
	for i, v := range out {
		if v > 0 {
			lit++
			row, col := i/127, i%127
			wantCol := []int{1, 2, 3}[row] + 63
			if col != wantCol {
				t.Errorf("row %d lit col %d, want %d", row, col, wantCol)
			}
		}
	}
	if lit != 3 {
		t.Errorf("lit %d pixels, want 3", lit)
	}
}

func TestEncodeEnlarged(t *testing.T) {
	e, _ := NewEncoder(127, 3)
	e.Enlarged = true
	out := make([]float64, e.InputSize())
	if err := e.Encode([]int{0, 0, 0}, out); err != nil {
		t.Fatal(err)
	}
	lit := 0
	for _, v := range out {
		if v > 0 {
			lit++
		}
	}
	// Three center pixels plus neighbours; vertical neighbours overlap, so
	// expect more than 3 and at most 15.
	if lit <= 3 || lit > 15 {
		t.Errorf("enlarged encoding lit %d pixels", lit)
	}
}

func TestEncodeEnlargedEdges(t *testing.T) {
	e, _ := NewEncoder(127, 3)
	e.Enlarged = true
	out := make([]float64, e.InputSize())
	// Extreme deltas must not index out of bounds.
	if err := e.Encode([]int{-63, 63, -63}, out); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeMiddleShift(t *testing.T) {
	e, _ := NewEncoder(127, 3)
	plain := make([]float64, e.InputSize())
	if err := e.Encode([]int{5, 5, 5}, plain); err != nil {
		t.Fatal(err)
	}
	e.MiddleShift = 11
	shifted := make([]float64, e.InputSize())
	if err := e.Encode([]int{5, 5, 5}, shifted); err != nil {
		t.Fatal(err)
	}
	// Rows 0 and 2 unchanged, row 1 moved by 11.
	for col := 0; col < 127; col++ {
		if plain[col] != shifted[col] || plain[2*127+col] != shifted[2*127+col] {
			t.Fatalf("outer rows changed by middle shift at col %d", col)
		}
	}
	if shifted[127+5+63] != 0 || shifted[127+5+63+11] == 0 {
		t.Error("middle row not shifted by 11")
	}
}

func TestEncodeRejectsOutOfRange(t *testing.T) {
	e, _ := NewEncoder(31, 3)
	out := make([]float64, e.InputSize())
	if err := e.Encode([]int{20, 1, 1}, out); err == nil {
		t.Error("accepted out-of-range delta")
	}
}

func TestTrainingTableLRU(t *testing.T) {
	tt := NewTrainingTable(2, 3)
	tt.Insert(1, 100, 0)
	tt.Insert(2, 200, 0)
	tt.Lookup(1, 100) // refresh (1,100); (2,200) becomes LRU
	tt.Insert(3, 300, 0)
	if _, ok := tt.Lookup(2, 200); ok {
		t.Error("LRU entry not evicted")
	}
	if _, ok := tt.Lookup(1, 100); !ok {
		t.Error("refreshed entry evicted")
	}
	if tt.Len() != 2 {
		t.Errorf("Len = %d, want 2", tt.Len())
	}
}

func TestTrainingEntryHistory(t *testing.T) {
	tt := NewTrainingTable(8, 3)
	e := tt.Insert(1, 1, 10)
	if e.Ready(3) {
		t.Error("new entry reported ready")
	}
	e.PushDelta(1, 11, 3)
	e.PushDelta(2, 13, 3)
	e.PushDelta(3, 16, 3)
	if !e.Ready(3) {
		t.Error("entry with 3 deltas not ready")
	}
	d := e.Deltas()
	if d[0] != 1 || d[1] != 2 || d[2] != 3 {
		t.Errorf("history = %v", d)
	}
	e.PushDelta(4, 20, 3)
	d = e.Deltas()
	if d[0] != 2 || d[1] != 3 || d[2] != 4 {
		t.Errorf("history after 4th push = %v", d)
	}
	if e.LastOffset() != 20 {
		t.Errorf("LastOffset = %d", e.LastOffset())
	}
}

func TestTrainingEntryResetHistory(t *testing.T) {
	tt := NewTrainingTable(8, 3)
	e := tt.Insert(1, 1, 10)
	e.PushDelta(1, 11, 3)
	e.SetLastNeuron(5)
	e.ResetHistory(40)
	if len(e.Deltas()) != 0 || e.LastNeuron() != -1 || e.LastOffset() != 40 {
		t.Error("ResetHistory did not clear state")
	}
}

func TestInferenceTableLifecycle(t *testing.T) {
	it := NewInferenceTable(4, 2)
	// First observation assigns a label with confidence 1.
	it.Observe(0, 6)
	labels := it.Labels(0)
	if len(labels) != 1 || labels[0].Delta != 6 || labels[0].Conf != 1 {
		t.Fatalf("labels after first observe = %v", labels)
	}
	// Matching observation increments.
	it.Observe(0, 6)
	if got := it.Labels(0)[0].Conf; got != 2 {
		t.Errorf("conf = %d, want 2", got)
	}
	// Different delta claims the free second slot (2-label behaviour).
	it.Observe(0, 12)
	labels = it.Labels(0)
	if len(labels) != 2 {
		t.Fatalf("labels = %v, want 2 entries", labels)
	}
	// With both slots full, a third delta decrements the weakest.
	it.Observe(0, 99)
	labels = it.Labels(0)
	if len(labels) != 1 || labels[0].Delta != 6 {
		t.Errorf("after weakest erased: %v", labels)
	}
}

func TestInferenceTableConfidenceSaturates(t *testing.T) {
	it := NewInferenceTable(1, 1)
	for i := 0; i < 20; i++ {
		it.Observe(0, 4)
	}
	if got := it.Labels(0)[0].Conf; got != ConfMax {
		t.Errorf("conf = %d, want %d", got, ConfMax)
	}
}

func TestInferenceTableEraseRestartsDiscovery(t *testing.T) {
	it := NewInferenceTable(1, 1)
	it.Observe(0, 4) // conf 1
	it.Observe(0, 9) // miss: conf 0, erased
	if len(it.Labels(0)) != 0 {
		t.Fatal("label not erased at confidence 0")
	}
	it.Observe(0, 9) // new label
	labels := it.Labels(0)
	if len(labels) != 1 || labels[0].Delta != 9 {
		t.Errorf("rediscovered labels = %v", labels)
	}
}

func TestInferenceTableLabelsSorted(t *testing.T) {
	it := NewInferenceTable(1, 2)
	it.Observe(0, 3)
	it.Observe(0, 8)
	it.Observe(0, 8) // 8 now has conf 2, 3 has conf 1
	labels := it.Labels(0)
	if len(labels) != 2 || labels[0].Delta != 8 {
		t.Errorf("labels not confidence-sorted: %v", labels)
	}
}

func TestNewPathfinderValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LabelsPerNeuron = 0
	if _, err := New(cfg); err == nil {
		t.Error("accepted 0 labels")
	}
	cfg = DefaultConfig()
	cfg.Degree = 0
	if _, err := New(cfg); err == nil {
		t.Error("accepted 0 degree")
	}
	cfg = DefaultConfig()
	cfg.DeltaRange = 10
	if _, err := New(cfg); err == nil {
		t.Error("accepted even delta range")
	}
	cfg = DefaultConfig()
	cfg.STDPPeriod = 100
	if _, err := New(cfg); err == nil {
		t.Error("accepted duty cycle with STDPOn=0")
	}
}

// TestNewAcceptsOnlyLoadableConfigs pins that New refuses negative Ticks
// and TrainingTableSize, an unknown input mode and every value above
// load's caps, naming the field, rather than building a prefetcher whose
// Save Load refuses; and that every configuration New accepts, at-cap
// values included, round-trips Save → Load → Save byte for byte.
func TestNewAcceptsOnlyLoadableConfigs(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(*Config)
		reject string // "": accepted; else the field the error must name
	}{
		{"default", func(*Config) {}, ""},
		{"ticks-default", func(c *Config) { c.Ticks = 0 }, ""},
		{"ticks-negative", func(c *Config) { c.Ticks = -5 }, "ticks"},
		{"table-default", func(c *Config) { c.TrainingTableSize = 0 }, ""},
		{"table-negative", func(c *Config) { c.TrainingTableSize = -1 }, "training table size"},
		{"inputs-pc", func(c *Config) { c.Inputs = InputPCDelta }, ""},
		{"inputs-footprint", func(c *Config) { c.Inputs = InputFootprint }, ""},
		{"inputs-unknown", func(c *Config) { c.Inputs = 7 }, "input mode"},
		{"inputs-negative", func(c *Config) { c.Inputs = -1 }, "input mode"},
		{"variants", func(c *Config) {
			c.OneTick, c.Enlarged, c.Reorder, c.MultiFire, c.CompareOneTick = true, true, true, true, true
			c.ColdPage, c.MiddleShift, c.LabelsPerNeuron, c.Degree = false, 5, 1, 3
			c.STDPOn, c.STDPPeriod = 3, 10
		}, ""},
		{"delta-range-cap", func(c *Config) { c.DeltaRange = maxDeltaRange - 1 }, ""},
		{"delta-range-over", func(c *Config) { c.DeltaRange = maxDeltaRange + 1 }, "delta range"},
		{"history-cap", func(c *Config) { c.History = maxHistory }, ""},
		{"history-over", func(c *Config) { c.History = maxHistory + 1 }, "history"},
		{"neurons-over", func(c *Config) { c.Neurons = maxNeurons + 1 }, "neurons"},
		{"labels-cap", func(c *Config) { c.LabelsPerNeuron = maxLabels }, ""},
		{"labels-over", func(c *Config) { c.LabelsPerNeuron = maxLabels + 1 }, "labels per neuron"},
		{"label-cells-over", func(c *Config) { c.Neurons, c.LabelsPerNeuron = maxLabelCells/maxLabels+1, maxLabels }, "neurons × labels per neuron"},
		{"degree-cap", func(c *Config) { c.Degree = maxDegree }, ""},
		{"degree-over", func(c *Config) { c.Degree = maxDegree + 1 }, "degree"},
		{"ticks-cap", func(c *Config) { c.Ticks = maxTicks }, ""},
		{"ticks-over", func(c *Config) { c.Ticks = maxTicks + 1 }, "ticks"},
		{"table-cap", func(c *Config) { c.TrainingTableSize = maxTableSize }, ""},
		{"table-over", func(c *Config) { c.TrainingTableSize = maxTableSize + 1 }, "training table size"},
		{"synapses-over", func(c *Config) { c.DeltaRange, c.History, c.Neurons = maxDeltaRange-1, maxHistory, 65 }, "delta range × history × neurons"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.DeltaRange, cfg.Neurons, cfg.Ticks = 15, 10, 8
			c.mutate(&cfg)
			p, err := New(cfg)
			if c.reject != "" {
				if err == nil {
					t.Fatalf("New accepted %+v", cfg)
				}
				if !strings.Contains(err.Error(), c.reject) {
					t.Fatalf("New's error %q does not name %s", err, c.reject)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			driveDeterministic(t, p, 0, 100)
			var first, second bytes.Buffer
			if err := p.Save(&first); err != nil {
				t.Fatal(err)
			}
			q, err := Load(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatalf("Load of New's own Save: %v", err)
			}
			if q.Config() != p.Config() {
				t.Errorf("config %+v reloaded as %+v", p.Config(), q.Config())
			}
			if err := q.Save(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Error("Save -> Load -> Save is not byte-identical")
			}
		})
	}
}

// TestLoadRejectsRetiredSlots pins PFS1's five retired configuration
// slots: Save writes the constants the datapath now fixes, and Load and
// LoadSession refuse a file holding any other value, naming the field.
func TestLoadRejectsRetiredSlots(t *testing.T) {
	blob, _ := trainedSession(t)
	le := binary.LittleEndian
	const ints = 4          // magic, then 21 int64 slots
	const floats = 4 + 8*21 // then 2 float64 slots
	for _, c := range []struct {
		name string
		at   int
		want uint64
		bad  uint64
	}{
		{"confidence threshold", ints + 8*7, 2, 3},
		{"confidence threshold", ints + 8*7, 2, 0},
		{"weight-dependent STDP flag", ints + 8*18, 0, 1},
		{"temporal coding flag", ints + 8*20, 0, 1},
		{"enlarged-pixel intensity", floats, math.Float64bits(0), math.Float64bits(0.35)},
		{"multi-fire inhibition scale", floats + 8, math.Float64bits(0.25), math.Float64bits(0.5)},
	} {
		if got := le.Uint64(blob[c.at:]); got != c.want {
			t.Errorf("Save wrote %#x into the retired %s slot, want %#x", got, c.name, c.want)
		}
		bad := append([]byte(nil), blob...)
		le.PutUint64(bad[c.at:], c.bad)
		for _, load := range []struct {
			name string
			fn   func(io.Reader) (*Pathfinder, error)
		}{{"Load", Load}, {"LoadSession", LoadSession}} {
			_, err := load.fn(bytes.NewReader(bad))
			if err == nil || !strings.Contains(err.Error(), c.name) {
				t.Errorf("%s with the %s slot at %#x: err %v, want one naming the field", load.name, c.name, c.bad, err)
			}
		}
	}
}

// feed drives the prefetcher down a repeating delta pattern on one page
// stream and reports how many of its suggestions matched the next access.
func feed(t *testing.T, p *Pathfinder, pattern []int, steps int) (matched, issued int) {
	t.Helper()
	page := uint64(1000)
	off := 0
	pos := 0
	pending := make(map[uint64]bool)
	for i := 0; i < steps; i++ {
		d := pattern[pos%len(pattern)]
		pos++
		if off+d < 0 || off+d >= trace.BlocksPerPage {
			page++
			off = 0
			pos = 1
		} else {
			off += d
		}
		addr := page*trace.PageBytes + uint64(off)*trace.BlockBytes
		if pending[addr/trace.BlockBytes] {
			matched++
		}
		got := p.Advise(trace.Access{ID: uint64(i + 1), PC: 0x400, Addr: addr}, 2)
		issued += len(got)
		pending = make(map[uint64]bool)
		for _, g := range got {
			pending[g/trace.BlockBytes] = true
		}
	}
	return matched, issued
}

func TestPathfinderLearnsRepeatingPattern(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ticks = 16 // keep the test quick
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	matched, issued := feed(t, p, []int{1, 2, 3}, 400)
	if issued == 0 {
		t.Fatal("PATHFINDER never issued a prefetch")
	}
	if matched < 100 {
		t.Errorf("only %d/400 next accesses were prefetched (issued %d)", matched, issued)
	}
}

func TestPathfinderOneTickLearnsToo(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OneTick = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	matched, issued := feed(t, p, []int{2, 2, 4}, 400)
	if issued == 0 {
		t.Fatal("1-tick PATHFINDER never issued a prefetch")
	}
	if matched < 100 {
		t.Errorf("1-tick: only %d/400 next accesses prefetched", matched)
	}
}

func TestPathfinderSelectiveOnNoise(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ticks = 8
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Uniformly random offsets: no consistent labels should form, so
	// PATHFINDER stays quiet relative to its access count (§5: it is a
	// selective prefetcher).
	issued := 0
	state := uint64(12345)
	for i := 0; i < 2000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		off := (state >> 33) % trace.BlocksPerPage
		addr := uint64(7)*trace.PageBytes + off*trace.BlockBytes
		issued += len(p.Advise(trace.Access{ID: uint64(i + 1), PC: 0x400, Addr: addr}, 2))
	}
	if issued > 1200 {
		t.Errorf("PATHFINDER issued %d prefetches on 2000 noise accesses", issued)
	}
}

func TestPathfinderRespectsBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ticks = 8
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	page := uint64(5)
	for i := 0; i < 300; i++ {
		off := (i * 2) % trace.BlocksPerPage
		got := p.Advise(trace.Access{ID: uint64(i + 1), PC: 1, Addr: page*trace.PageBytes + uint64(off)*trace.BlockBytes}, 1)
		if len(got) > 1 {
			t.Fatalf("budget 1 but got %d suggestions", len(got))
		}
	}
}

func TestPathfinderPrefetchesStayInPage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ticks = 8
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	page := uint64(42)
	for i := 0; i < 500; i++ {
		off := (i * 3) % trace.BlocksPerPage
		got := p.Advise(trace.Access{ID: uint64(i + 1), PC: 1, Addr: page*trace.PageBytes + uint64(off)*trace.BlockBytes}, 2)
		for _, g := range got {
			if g/trace.PageBytes != page {
				t.Fatalf("prefetch %#x left page %d", g, page)
			}
		}
	}
}

func TestPathfinderZeroDeltaIgnored(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ticks = 8
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := trace.Access{ID: 1, PC: 1, Addr: 4096}
	p.Advise(a, 2)
	q0 := p.Stats().Queries
	for i := 2; i < 10; i++ {
		a.ID = uint64(i)
		p.Advise(a, 2) // same block repeatedly
	}
	if p.Stats().Queries != q0 {
		t.Error("zero deltas triggered SNN queries")
	}
}

func TestPathfinderColdPageQueriesImmediately(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ticks = 8
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Advise(trace.Access{ID: 1, PC: 1, Addr: 8192 + 10*trace.BlockBytes}, 2)
	if p.Stats().Queries != 1 {
		t.Errorf("cold-page first touch made %d queries, want 1", p.Stats().Queries)
	}

	cfg.ColdPage = false
	p2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2.Advise(trace.Access{ID: 1, PC: 1, Addr: 8192 + 10*trace.BlockBytes}, 2)
	if p2.Stats().Queries != 0 {
		t.Errorf("without ColdPage, first touch made %d queries, want 0", p2.Stats().Queries)
	}
}

func TestPathfinderSTDPDutyCycle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ticks = 8
	cfg.STDPOn = 50
	cfg.STDPPeriod = 5000
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Learning should still work: the pattern is learned during the
	// on-window.
	matched, issued := feed(t, p, []int{1, 2, 3}, 400)
	if issued == 0 || matched == 0 {
		t.Errorf("duty-cycled PATHFINDER: matched=%d issued=%d", matched, issued)
	}
}

func TestPathfinderCompareOneTickStats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ticks = 16
	cfg.CompareOneTick = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, p, []int{1, 2, 3}, 300)
	st := p.Stats()
	if st.OneTickQueries == 0 {
		t.Fatal("no one-tick comparisons recorded")
	}
	rate := float64(st.OneTickMatches) / float64(st.OneTickQueries)
	if rate < 0.5 {
		t.Errorf("one-tick match rate %.2f; Table 1 reports ~0.83-0.94", rate)
	}
}

func TestPathfinderOutOfRangeDeltaBreaksHistory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeltaRange = 31 // max |delta| = 15
	cfg.Ticks = 8
	cfg.ColdPage = false
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	page := uint64(9)
	offs := []int{0, 1, 2, 3, 40, 41, 42, 43} // the +37 jump is unencodable
	for i, off := range offs {
		p.Advise(trace.Access{ID: uint64(i + 1), PC: 1, Addr: page*trace.PageBytes + uint64(off)*trace.BlockBytes}, 2)
	}
	// Queries: offs[3] completes a history (1 query); the jump breaks it;
	// 41,42,43 rebuild (query at 43).
	if got := p.Stats().Queries; got != 2 {
		t.Errorf("queries = %d, want 2", got)
	}
}

func TestPathfinderDeterministic(t *testing.T) {
	run := func() (int, int) {
		cfg := DefaultConfig()
		cfg.Ticks = 8
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return feed(t, p, []int{1, 2, 3}, 200)
	}
	m1, i1 := run()
	m2, i2 := run()
	if m1 != m2 || i1 != i2 {
		t.Errorf("non-deterministic: (%d,%d) vs (%d,%d)", m1, i1, m2, i2)
	}
}

// BenchmarkPathfinderAdvise measures the default configuration's
// per-access cost in two regimes. OnePC walks one PC through consecutive
// pages, so nearly every access is an SNN query and the Training Table
// inserts once per page. ManyPC replays manyPCAccesses, whose (PC, page)
// pairs overflow the Training Table, so it also pays for inserts and LRU
// evictions; BENCH_core.json records it.
func BenchmarkPathfinderAdvise(b *testing.B) {
	b.Run("OnePC", func(b *testing.B) {
		p, err := New(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		off, page := 0, uint64(0)
		pat := []int{1, 2, 3}
		for i := 0; i < b.N; i++ {
			d := pat[i%3]
			if off+d >= trace.BlocksPerPage {
				page++
				off = 0
			} else {
				off += d
			}
			p.Advise(trace.Access{ID: uint64(i + 1), PC: 1, Addr: page*trace.PageBytes + uint64(off)*trace.BlockBytes}, 2)
		}
	})
	b.Run("ManyPC", func(b *testing.B) {
		accs := manyPCAccesses(b)
		p, err := New(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range accs {
			p.Advise(a, 2)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Advise(accs[i%len(accs)], 2)
		}
	})
}

// manyPCAccesses is a 10K-load prefix of the 605-mcf-s1 trace: 10 PCs
// over enough pages that its (PC, page) pairs overflow the default
// 1,024-row Training Table on every pass, so replaying it keeps the table
// full and evicting.
func manyPCAccesses(tb testing.TB) []trace.Access {
	tb.Helper()
	accs, err := workload.Generate("605-mcf-s1", 10_000, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return accs
}

// TestPathfinderAdviseSteadyStateZeroAlloc pins the zero-alloc Advise
// contract the table prefetchers already keep: once the Training Table is
// full and its slabs have grown, an access — insert, eviction, SNN query
// and issue included — allocates nothing.
func TestPathfinderAdviseSteadyStateZeroAlloc(t *testing.T) {
	accs := manyPCAccesses(t)
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range accs {
		p.Advise(a, 2)
	}
	if p.tt.Len() != p.cfg.TrainingTableSize {
		t.Fatalf("warm-up left the Training Table at %d of %d rows", p.tt.Len(), p.cfg.TrainingTableSize)
	}
	before := p.Stats()
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		p.Advise(accs[i%len(accs)], 2)
		i++
	})
	if avg != 0 {
		t.Errorf("Advise allocates %.2f/op in steady state, want 0", avg)
	}
	if st := p.Stats(); st.Queries == before.Queries || st.Issued == before.Issued {
		t.Fatalf("measured accesses made %d queries and issued %d; the regime must exercise both",
			st.Queries-before.Queries, st.Issued-before.Issued)
	}
}

func BenchmarkPathfinderAdviseOneTick(b *testing.B) {
	cfg := DefaultConfig()
	cfg.OneTick = true
	p, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	off, page := 0, uint64(0)
	pat := []int{1, 2, 3}
	for i := 0; i < b.N; i++ {
		d := pat[i%3]
		if off+d >= trace.BlocksPerPage {
			page++
			off = 0
		} else {
			off += d
		}
		p.Advise(trace.Access{ID: uint64(i + 1), PC: 1, Addr: page*trace.PageBytes + uint64(off)*trace.BlockBytes}, 2)
	}
}

func TestPathfinderMultiFireIssuesMore(t *testing.T) {
	run := func(multiFire bool) int {
		cfg := DefaultConfig()
		cfg.Ticks = 16
		cfg.MultiFire = multiFire
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, issued := feed(t, p, []int{1, 2, 3}, 300)
		return issued
	}
	single := run(false)
	multi := run(true)
	if single == 0 || multi == 0 {
		t.Fatalf("no issues: single=%d multi=%d", single, multi)
	}
	// Lower inhibition lets several neurons fire, which can only add
	// label opportunities.
	if multi < single/2 {
		t.Errorf("multi-fire issued %d, far below single-fire %d", multi, single)
	}
}

func TestPathfinderReorderVariantLearns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ticks = 16
	cfg.Enlarged = true
	cfg.Reorder = true
	cfg.MiddleShift = 11
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	matched, issued := feed(t, p, []int{1, 2, 3}, 400)
	if issued == 0 || matched == 0 {
		t.Errorf("reorder variant: matched=%d issued=%d", matched, issued)
	}
}

func TestEncoderReorderIsPermutation(t *testing.T) {
	for _, d := range []int{31, 63, 127} {
		e, err := NewEncoder(d, 3)
		if err != nil {
			t.Fatal(err)
		}
		e.Reorder = true
		perm := e.permutation()
		seen := make([]bool, d)
		for _, c := range perm {
			if c < 0 || c >= d || seen[c] {
				t.Fatalf("D=%d: not a permutation: %v", d, perm)
			}
			seen[c] = true
		}
	}
}

func TestPathfinderSuggestionsBlockAlignedProperty(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ticks = 8
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	state := uint64(99)
	for i := 0; i < 3000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		page := (state >> 40) % 64
		off := (state >> 33) % trace.BlocksPerPage
		addr := page*trace.PageBytes + off*trace.BlockBytes
		for _, g := range p.Advise(trace.Access{ID: uint64(i + 1), PC: state % 8, Addr: addr}, 2) {
			if g%trace.BlockBytes != 0 {
				t.Fatalf("suggestion %#x not block aligned", g)
			}
			if g/trace.PageBytes != page {
				t.Fatalf("suggestion %#x left page %d", g, page)
			}
		}
	}
}

func TestPathfinderHookObservesQueries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ticks = 8
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	p.Hook = func(hist []int, winner int, prefetches []uint64) {
		calls++
		if len(hist) != cfg.History {
			t.Fatalf("hook hist length %d", len(hist))
		}
	}
	feed(t, p, []int{2, 3}, 100)
	if calls == 0 {
		t.Error("hook never invoked")
	}
	if uint64(calls) != p.Stats().Queries {
		t.Errorf("hook calls %d != queries %d", calls, p.Stats().Queries)
	}
}

func TestPathfinderSaveLoadRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ticks = 8
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Train on a pattern, save, reload, and check the restored prefetcher
	// predicts the same pattern immediately.
	feed(t, p, []int{1, 2, 3}, 300)

	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	q, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if q.Config() != p.Config() {
		t.Errorf("config mismatch: %+v vs %+v", q.Config(), p.Config())
	}
	// The SNN weights must match exactly.
	for i := 0; i < 20; i++ {
		for j := 0; j < cfg.Neurons; j++ {
			if p.Network().Weight(i, j) != q.Network().Weight(i, j) {
				t.Fatalf("weight[%d][%d] differs after reload", i, j)
			}
		}
	}
	// The restored prefetcher should match the trained pattern quickly
	// (training table is transient, so allow a short re-warm).
	matched, issued := feed(t, q, []int{1, 2, 3}, 200)
	if issued == 0 || matched < 50 {
		t.Errorf("restored prefetcher: matched=%d issued=%d", matched, issued)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("XXXXjunk"))); err == nil {
		t.Error("Load accepted garbage")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("Load accepted empty input")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ticks = 8
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := Load(bytes.NewReader(b[:len(b)/2])); err == nil {
		t.Error("Load accepted truncated input")
	}
}

func TestPathfinderLabelsSnapshot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ticks = 8
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, p, []int{1, 2, 3}, 200)
	labels := p.Labels()
	if len(labels) != cfg.Neurons {
		t.Fatalf("snapshot covers %d neurons, want %d", len(labels), cfg.Neurons)
	}
	live := 0
	for _, ls := range labels {
		live += len(ls)
	}
	if live == 0 {
		t.Error("no labels assigned after training")
	}
}

func TestReplaceNetwork(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ticks = 8
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, p, []int{1, 2, 3}, 100)
	scfg := p.Network().Config()
	scfg.Seed = 99
	net, err := snn.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	p.ReplaceNetwork(net)
	if p.Network() != net {
		t.Error("network not replaced")
	}
	// Labels must have been cleared.
	for _, ls := range p.Labels() {
		if len(ls) != 0 {
			t.Fatal("labels survived network replacement")
		}
	}
	// Shape mismatch must panic.
	defer func() {
		if recover() == nil {
			t.Error("mismatched ReplaceNetwork did not panic")
		}
	}()
	bad, err := snn.New(snn.DefaultConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	p.ReplaceNetwork(bad)
}

func TestPathfinderInputModes(t *testing.T) {
	for _, mode := range []InputMode{InputDeltaHistory, InputPCDelta, InputFootprint} {
		cfg := DefaultConfig()
		cfg.Ticks = 8
		cfg.Inputs = mode
		p, err := New(cfg)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		matched, issued := feed(t, p, []int{1, 2, 3}, 300)
		if issued == 0 {
			t.Errorf("mode %d: never issued", mode)
		}
		if matched == 0 {
			t.Errorf("mode %d: never matched", mode)
		}
	}
}

func TestPathfinderInputModeSaveLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ticks = 8
	cfg.Inputs = InputFootprint
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, p, []int{2, 3}, 100)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Config().Inputs != InputFootprint {
		t.Errorf("input mode not persisted: %d", q.Config().Inputs)
	}
	// The restored prefetcher must be operable.
	if _, issued := feed(t, q, []int{2, 3}, 100); issued == 0 {
		t.Error("restored footprint-mode prefetcher never issued")
	}
}

func TestEncoderReorderWithMiddleShift(t *testing.T) {
	// Reorder and middle shift compose without out-of-range columns.
	e, err := NewEncoder(63, 3)
	if err != nil {
		t.Fatal(err)
	}
	e.Enlarged = true
	e.Reorder = true
	e.MiddleShift = 11
	out := make([]float64, e.InputSize())
	for _, hist := range [][]int{{-31, 0, 31}, {1, 2, 3}, {-1, -2, -3}} {
		if err := e.Encode(hist, out); err != nil {
			t.Fatalf("hist %v: %v", hist, err)
		}
		lit := 0
		for _, v := range out {
			if v > 0 {
				lit++
			}
		}
		if lit < 3 {
			t.Fatalf("hist %v: only %d pixels lit", hist, lit)
		}
	}
}

// driveDeterministic pushes a synthetic two-stream access sequence through
// p and records every suggestion list, so two prefetchers can be compared
// advise-for-advise. Accesses are a pure function of the step index:
// identical calls on identical state must produce identical output.
func driveDeterministic(t testing.TB, p *Pathfinder, start, n int) [][]uint64 {
	t.Helper()
	out := make([][]uint64, 0, n)
	for i := start; i < start+n; i++ {
		pc := uint64(0x400 + 8*(i%2))
		page := uint64(1000 + i%2*77 + i/97)
		off := (i * 3 / 2) % trace.BlocksPerPage
		addr := page*trace.PageBytes + uint64(off)*trace.BlockBytes
		got := p.Advise(trace.Access{ID: uint64(i + 1), PC: pc, Addr: addr}, 2)
		out = append(out, append([]uint64(nil), got...))
	}
	return out
}

// TestSaveSessionExactContinuation pins SaveSession's contract: unlike
// Save (which drops the training table and RNG position, re-warming after
// restore), a LoadSession'd prefetcher must continue bit-identically —
// every subsequent Advise equal to the never-serialized original's.
func TestSaveSessionExactContinuation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ticks = 8
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveDeterministic(t, p, 0, 400)

	var buf bytes.Buffer
	if err := p.SaveSession(&buf); err != nil {
		t.Fatalf("SaveSession: %v", err)
	}
	q, err := LoadSession(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadSession: %v", err)
	}

	want := driveDeterministic(t, p, 400, 300)
	got := driveDeterministic(t, q, 400, 300)
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("advise %d: %v vs %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("advise %d addr %d: %#x vs %#x", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// trainedSession returns the SaveSession blob of a small PATHFINDER (a
// 10-neuron network keeps the blob at a few KB, fast to fuzz) driven
// through 200 deterministic accesses, and the length of its Save prefix
// (where the PFX1 extension starts).
func trainedSession(tb testing.TB) (blob []byte, saveLen int) {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.DeltaRange = 15
	cfg.History = 3
	cfg.Neurons = 10
	cfg.LabelsPerNeuron = 2
	cfg.Ticks = 8
	p, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	driveDeterministic(tb, p, 0, 200)
	var plain, buf bytes.Buffer
	if err := p.Save(&plain); err != nil {
		tb.Fatal(err)
	}
	if err := p.SaveSession(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), plain.Len()
}

// TestLoadSessionRejectsDuplicateStamps pins that a snapshot whose
// training entries share a lastUse stamp is refused: save never writes
// one, and restoring it would leave the next save's byte order and the
// LRU victim to map iteration order.
func TestLoadSessionRejectsDuplicateStamps(t *testing.T) {
	blob, saveLen := trainedSession(t)
	if _, err := LoadSession(bytes.NewReader(blob)); err != nil {
		t.Fatalf("LoadSession on an unmodified blob: %v", err)
	}
	// PFX1 section: magic, RNG state, table clock, entry count, entries.
	// An entry is pc, page, footprint, lastUse, then offset, broken,
	// neuron, delta count, then the deltas, all 8 bytes each.
	le := binary.LittleEndian
	tab := saveLen + 4 + 8
	if n := le.Uint64(blob[tab+8:]); n < 2 {
		t.Fatalf("trained table holds %d entries, need 2", n)
	}
	e0 := tab + 16
	e1 := e0 + 64 + 8*int(le.Uint64(blob[e0+56:]))
	bad := append([]byte(nil), blob...)
	copy(bad[e1+24:e1+32], blob[e0+24:e0+32])
	if _, err := LoadSession(bytes.NewReader(bad)); err == nil {
		t.Fatal("LoadSession accepted two training entries with one lastUse stamp")
	}
}

// TestLoadSessionRejectsNeuronOutsideNetwork pins that a Training Table
// entry naming a neuron past the network is refused at load: accepted, it
// would make the next access to that stream index the Inference Table out
// of range and panic.
func TestLoadSessionRejectsNeuronOutsideNetwork(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Neurons = 10
	cfg.Ticks = 8
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const pc, page = 0x400, 7
	p.Advise(trace.Access{ID: 1, PC: pc, Addr: page * trace.PageBytes}, 2)
	e, ok := p.tt.Lookup(pc, page)
	if !ok {
		t.Fatal("no Training Table entry after the first access")
	}
	e.SetLastNeuron(500)
	var buf bytes.Buffer
	if err := p.SaveSession(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := LoadSession(bytes.NewReader(buf.Bytes()))
	if err == nil {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("LoadSession accepted neuron 500 of 10, and the next access panicked: %v", r)
			}
		}()
		q.Advise(trace.Access{ID: 2, PC: pc, Addr: page*trace.PageBytes + trace.BlockBytes}, 2)
		t.Fatal("LoadSession accepted a training entry naming neuron 500 of a 10-neuron network")
	}
}

// TestLoadRejectsNetworkShapeMismatch pins that a file whose SNN section
// has more neurons than its configuration declares is refused: accepted,
// a winner past the declared count would index the Inference Table out
// of range on the next access.
func TestLoadRejectsNetworkShapeMismatch(t *testing.T) {
	build := func(neurons int) *Pathfinder {
		cfg := DefaultConfig()
		cfg.Neurons = neurons
		cfg.Ticks = 8
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	small, large := build(10), build(20)
	var whole, smallNet, largeNet bytes.Buffer
	if err := small.Save(&whole); err != nil {
		t.Fatal(err)
	}
	if err := small.Network().Save(&smallNet); err != nil {
		t.Fatal(err)
	}
	if err := large.Network().Save(&largeNet); err != nil {
		t.Fatal(err)
	}
	blob := append(whole.Bytes()[:whole.Len()-smallNet.Len():whole.Len()-smallNet.Len()], largeNet.Bytes()...)
	if _, err := Load(bytes.NewReader(blob)); err == nil {
		t.Fatal("Load accepted a 10-neuron configuration carrying a 20-neuron network")
	}
	if _, err := LoadSession(bytes.NewReader(blob)); err == nil {
		t.Fatal("LoadSession accepted a 10-neuron configuration carrying a 20-neuron network")
	}
}

// TestSaveSessionContinuesAfterEviction extends the exact-continuation
// contract past the Training Table's first evictions: the restored
// recency order must pick the same victims as the uninterrupted run, so
// both the predictions and the next snapshot match it byte for byte.
func TestSaveSessionContinuesAfterEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ticks = 8
	cfg.TrainingTableSize = 64
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 16 PCs walking their own pages: far more (PC, page) pairs than rows.
	drive := func(p *Pathfinder, start, n int) [][]uint64 {
		out := make([][]uint64, 0, n)
		for i := start; i < start+n; i++ {
			pc := uint64(0x400 + 4*(i%16))
			page := uint64(i%16*1000 + i/16/8)
			off := (i / 16 % 8) * 3
			got := p.Advise(trace.Access{ID: uint64(i + 1), PC: pc, Addr: page*trace.PageBytes + uint64(off)*trace.BlockBytes}, 2)
			out = append(out, append([]uint64(nil), got...))
		}
		return out
	}
	drive(p, 0, 3000)
	if p.tt.Len() != cfg.TrainingTableSize {
		t.Fatalf("Training Table holds %d of %d rows; the run must reach eviction", p.tt.Len(), cfg.TrainingTableSize)
	}
	var buf bytes.Buffer
	if err := p.SaveSession(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := LoadSession(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want, got := drive(p, 3000, 2000), drive(q, 3000, 2000)
	issued := 0
	for i := range want {
		issued += len(want[i])
		if len(got[i]) != len(want[i]) {
			t.Fatalf("advise %d: %v vs %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("advise %d addr %d: %#x vs %#x", i, j, got[i][j], want[i][j])
			}
		}
	}
	if issued == 0 {
		t.Fatal("the continued run issued nothing; it compares no predictions")
	}
	var pb, qb bytes.Buffer
	if err := p.SaveSession(&pb); err != nil {
		t.Fatal(err)
	}
	if err := q.SaveSession(&qb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb.Bytes(), qb.Bytes()) {
		t.Fatal("the restored session's next snapshot differs from the uninterrupted run's")
	}
}

// TestLoadSessionAcceptsPlainSave keeps the formats interchangeable: a
// blob written by Save (no extension section) must load via LoadSession,
// with transients simply starting fresh.
func TestLoadSessionAcceptsPlainSave(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ticks = 8
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, p, []int{1, 2}, 100)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSession(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("LoadSession on a plain Save blob: %v", err)
	}
}

// TestLoadSessionRejectsCorruptExtension checks the extension's sanity
// caps: a truncated or field-corrupted PFX1 section fails loudly.
func TestLoadSessionRejectsCorruptExtension(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ticks = 8
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveDeterministic(t, p, 0, 200)
	var buf bytes.Buffer
	if err := p.SaveSession(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := LoadSession(bytes.NewReader(b[:len(b)-3])); err == nil {
		t.Error("LoadSession accepted a truncated extension")
	}
	// Flip a bit in the extension magic.
	var plain bytes.Buffer
	if err := p.Save(&plain); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), b...)
	bad[plain.Len()] ^= 0xFF
	if _, err := LoadSession(bytes.NewReader(bad)); err == nil {
		t.Error("LoadSession accepted a corrupt extension magic")
	}
}
