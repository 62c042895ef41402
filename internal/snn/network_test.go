package snn

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	cfg := DefaultConfig(127 * 3)
	cfg.Seed = 7
	return cfg
}

// pattern lights one pixel per "row" of a 3x127 pixel matrix, like a
// PATHFINDER delta history.
func pattern(deltas ...int) []float64 {
	p := make([]float64, 127*3)
	for row, d := range deltas {
		col := d + 63
		p[row*127+col] = 1
	}
	return p
}

func TestNewValidatesConfig(t *testing.T) {
	cases := []struct {
		field  string // "" for the shape checks, whose errors name no field
		mutate func(*Config)
	}{
		{"", func(c *Config) { c.InputSize = 0 }},
		{"", func(c *Config) { c.Neurons = 0 }},
		{"", func(c *Config) { c.Ticks = 0 }},
		{"", func(c *Config) { c.FireProb = 0 }},
		{"", func(c *Config) { c.FireProb = 1.5 }},
		// The region the event-driven engine is exact for.
		{"RestE", func(c *Config) { c.RestE = c.ThreshE }},
		{"ResetE", func(c *Config) { c.ResetE = c.ThreshE + 1 }},
		{"ResetE", func(c *Config) { c.ResetE = math.NaN() }},
		{"RestI", func(c *Config) { c.RestI = c.ThreshI + 5 }},
		{"ResetI", func(c *Config) { c.ResetI = c.ThreshI }},
		{"Inh", func(c *Config) { c.Inh = -0.5 }},
		{"ThetaPlus", func(c *Config) { c.ThetaPlus = -0.05 }},
		{"TraceTC", func(c *Config) { c.TraceTC = -1 }},
		{"TCTheta", func(c *Config) { c.TCTheta = -1 }},
		{"Norm", func(c *Config) { c.Norm = 0 }},
		{"Norm", func(c *Config) { c.Norm = -38.4 }},
		{"WMax", func(c *Config) { c.WMax = 0 }},
		{"TCDecayE", func(c *Config) { c.TCDecayE = 0 }},
		{"TCDecayI", func(c *Config) { c.TCDecayI = -10 }},
	}
	for i, c := range cases {
		cfg := testConfig()
		c.mutate(&cfg)
		_, err := New(cfg)
		if err == nil {
			t.Errorf("case %d: New accepted invalid config", i)
			continue
		}
		if c.field != "" && !strings.Contains(err.Error(), c.field+" ") {
			t.Errorf("case %d: error %q does not name %s", i, err, c.field)
		}
	}
	// The region's edges are inside it.
	cfg := testConfig()
	cfg.Inh, cfg.ThetaPlus, cfg.TraceTC, cfg.TCTheta = 0, 0, 0, 0
	if _, err := New(cfg); err != nil {
		t.Errorf("New rejected zero Inh, ThetaPlus, TraceTC and TCTheta: %v", err)
	}
}

func TestPresentRejectsWrongInputLength(t *testing.T) {
	n, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Present(make([]float64, 5), false); err == nil {
		t.Error("Present accepted wrong input length")
	}
	if _, err := n.PresentOneTick(make([]float64, 5), false); err == nil {
		t.Error("PresentOneTick accepted wrong input length")
	}
}

func TestInitialWeightsNormalized(t *testing.T) {
	cfg := testConfig()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < cfg.Neurons; j++ {
		sum := 0.0
		for i := 0; i < cfg.InputSize; i++ {
			sum += n.Weight(i, j)
		}
		if math.Abs(sum-cfg.Norm) > 1e-6 {
			t.Fatalf("neuron %d weight sum %.4f, want %.1f", j, sum, cfg.Norm)
		}
	}
}

func TestWeightsStayBounded(t *testing.T) {
	cfg := testConfig()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 20; k++ {
		if _, err := n.Present(pattern(1, 2, 4), true); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < cfg.InputSize; i++ {
		for j := 0; j < cfg.Neurons; j++ {
			w := n.Weight(i, j)
			if w < 0 || w > cfg.WMax {
				t.Fatalf("weight[%d][%d] = %v outside [0, %v]", i, j, w, cfg.WMax)
			}
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() Result {
		n, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		var last Result
		for k := 0; k < 5; k++ {
			last, err = n.Present(pattern(1, 2, 4), true)
			if err != nil {
				t.Fatal(err)
			}
		}
		return last
	}
	a, b := run(), run()
	if a.Winner != b.Winner || a.FirstFireTick != b.FirstFireTick {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestRepeatedPatternKeepsSameWinner(t *testing.T) {
	// §3.6: once a neuron fires for a pattern, STDP strengthens it so the
	// same neuron keeps firing for that pattern.
	n, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	first := -1
	for k := 0; k < 10; k++ {
		res, err := n.Present(pattern(1, 2, 4), true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Winner < 0 {
			continue
		}
		if first < 0 {
			first = res.Winner
			continue
		}
		if k >= 3 && res.Winner != first {
			t.Fatalf("interval %d: winner %d, want stable %d", k, res.Winner, first)
		}
	}
	if first < 0 {
		t.Fatal("no neuron ever fired for the repeated pattern")
	}
}

func TestDistinctPatternsGetDistinctNeurons(t *testing.T) {
	n, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	train := func(p []float64) int {
		w := -1
		for k := 0; k < 8; k++ {
			res, err := n.Present(p, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.Winner >= 0 {
				w = res.Winner
			}
		}
		return w
	}
	a := train(pattern(1, 2, 4))
	b := train(pattern(-20, 30, -40))
	if a < 0 || b < 0 {
		t.Fatalf("patterns did not elicit firing: %d, %d", a, b)
	}
	if a == b {
		t.Errorf("very different patterns mapped to the same neuron %d", a)
	}
	// The original pattern must still map to its neuron.
	if got := train(pattern(1, 2, 4)); got != a {
		t.Errorf("original pattern now maps to %d, want %d", got, a)
	}
}

func TestInhibitionLimitsFiring(t *testing.T) {
	// With strong inhibition few distinct neurons fire per interval; with
	// none, many more do.
	count := func(inh float64) int {
		cfg := testConfig()
		cfg.Inh = inh
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := n.Present(pattern(1, 2, 4), false)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.FiredNeurons())
	}
	strong := count(60)
	none := count(0)
	if strong > none {
		t.Errorf("stronger inhibition fired more neurons: %d vs %d", strong, none)
	}
}

func TestThetaGrowsWithFiring(t *testing.T) {
	cfg := testConfig()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Present(pattern(1, 2, 4), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner < 0 {
		t.Skip("no firing with this seed")
	}
	if n.Theta(res.Winner) <= 0 {
		t.Errorf("theta of firing neuron = %v, want > 0", n.Theta(res.Winner))
	}
}

func TestFiredNeuronsSorted(t *testing.T) {
	r := Result{Spikes: []int{0, 3, 1, 0, 5}}
	got := r.FiredNeurons()
	want := []int{4, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("FiredNeurons = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FiredNeurons = %v, want %v", got, want)
		}
	}
}

func TestOneTickAgreesWithFullInterval(t *testing.T) {
	// Table 1: after training, the highest-margin neuron after one tick
	// should usually be the full-interval winner.
	cfg := testConfig()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	patterns := [][]float64{pattern(1, 2, 4), pattern(5, -3, 8), pattern(-10, 2, 40)}
	for _, p := range patterns {
		for k := 0; k < 6; k++ {
			if _, err := n.Present(p, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	match, total := 0, 0
	for _, p := range patterns {
		full, err := n.Present(p, false)
		if err != nil {
			t.Fatal(err)
		}
		if full.Winner < 0 {
			continue
		}
		one, err := n.PresentOneTick(p, false)
		if err != nil {
			t.Fatal(err)
		}
		total++
		if one.Winner == full.Winner {
			match++
		}
	}
	if total == 0 {
		t.Skip("no firings to compare")
	}
	if match*2 < total {
		t.Errorf("1-tick matched full interval on %d/%d trained patterns", match, total)
	}
}

func TestOneTickLearningConvergesWinner(t *testing.T) {
	cfg := testConfig()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var prev, stable int = -1, 0
	for k := 0; k < 12; k++ {
		res, err := n.PresentOneTick(pattern(2, 2, 3), true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Winner == prev {
			stable++
		} else {
			stable = 0
		}
		prev = res.Winner
	}
	if stable < 5 {
		t.Errorf("1-tick winner not stable: only %d consecutive repeats", stable)
	}
}

func TestMonitorRecordsTicks(t *testing.T) {
	cfg := testConfig()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var m Monitor
	n.SetMonitor(&m)
	if _, err := n.Present(pattern(1, 2, 4), false); err != nil {
		t.Fatal(err)
	}
	if len(m.Ticks) != cfg.Ticks {
		t.Fatalf("monitor recorded %d ticks, want %d", len(m.Ticks), cfg.Ticks)
	}
	if len(m.Ticks[0].Potentials) != cfg.Neurons {
		t.Errorf("monitor potentials length %d, want %d", len(m.Ticks[0].Potentials), cfg.Neurons)
	}
	m.Reset()
	if len(m.Ticks) != 0 {
		t.Error("Monitor.Reset did not clear")
	}
}

func TestNormalizationInvariantProperty(t *testing.T) {
	// Property: after any training interval, every neuron's weight sum is
	// cfg.Norm (up to clamping slack) and all weights are in bounds.
	cfg := testConfig()
	cfg.Ticks = 8 // keep the property test fast
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := func(d1, d2, d3 int8) bool {
		p := pattern(int(d1)%64, int(d2)%64, int(d3)%64)
		if _, err := n.Present(p, true); err != nil {
			return false
		}
		for j := 0; j < cfg.Neurons; j++ {
			sum := 0.0
			for i := 0; i < cfg.InputSize; i++ {
				w := n.Weight(i, j)
				if w < 0 || w > cfg.WMax {
					return false
				}
				sum += w
			}
			if math.Abs(sum-cfg.Norm) > 0.5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := newRNG(42), newRNG(42)
	for i := 0; i < 100; i++ {
		if a.float64() != b.float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := newRNG(0)
	x := r.float64()
	if x < 0 || x >= 1 {
		t.Fatalf("float64() = %v outside [0,1)", x)
	}
}

func TestRNGUniformish(t *testing.T) {
	r := newRNG(9)
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		sum += r.float64()
	}
	mean := sum / n
	if mean < 0.45 || mean > 0.55 {
		t.Errorf("mean %v far from 0.5", mean)
	}
}

func TestOneTickWinnerPure(t *testing.T) {
	n, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := pattern(1, 2, 4)
	w1, err := n.OneTickWinner(p)
	if err != nil {
		t.Fatal(err)
	}
	// Calling again must not change the answer (no state mutation).
	w2, err := n.OneTickWinner(p)
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 {
		t.Errorf("OneTickWinner mutated state: %d then %d", w1, w2)
	}
	if _, err := n.OneTickWinner(p[:5]); err == nil {
		t.Error("accepted wrong input length")
	}
}

func TestThetaDecays(t *testing.T) {
	cfg := testConfig()
	cfg.TCTheta = 100 // aggressive decay for the test
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := pattern(1, 2, 4)
	res, err := n.Present(p, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner < 0 {
		t.Skip("no firing with this seed")
	}
	peak := n.Theta(res.Winner)
	// Present a different pattern so the original winner stays silent and
	// its theta decays.
	for i := 0; i < 10; i++ {
		if _, err := n.Present(pattern(-30, 20, -10), false); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.Theta(res.Winner); got >= peak {
		t.Errorf("theta did not decay: %v -> %v", peak, got)
	}
}

func TestNetworkSaveLoadRoundTrip(t *testing.T) {
	cfg := testConfig()
	cfg.Ticks = 8
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		if _, err := n.Present(pattern(1, 2, 4), true); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	m, err := LoadNetwork(&buf)
	if err != nil {
		t.Fatalf("LoadNetwork: %v", err)
	}
	if m.Config() != cfg {
		t.Errorf("config mismatch")
	}
	for i := 0; i < cfg.InputSize; i++ {
		for j := 0; j < cfg.Neurons; j++ {
			if n.Weight(i, j) != m.Weight(i, j) {
				t.Fatalf("weight[%d][%d] differs", i, j)
			}
		}
	}
	for j := 0; j < cfg.Neurons; j++ {
		if n.Theta(j) != m.Theta(j) {
			t.Fatalf("theta[%d] differs", j)
		}
	}
	// Both must produce the same one-tick winner (deterministic given
	// identical weights/thetas).
	a, _ := n.OneTickWinner(pattern(1, 2, 4))
	b, _ := m.OneTickWinner(pattern(1, 2, 4))
	if a != b {
		t.Errorf("winners differ after reload: %d vs %d", a, b)
	}
}

// TestLoadNetworkRejectsImplausibleValues pins the float checks of
// LoadNetwork: a snapshot whose parameters or learned state lie where no
// configuration puts them is refused, since under pfdebug the engine's
// invariant checks would panic on it and in release builds it computes
// with infinities. A configuration outside New's region is refused with
// an error naming the field.
func TestLoadNetworkRejectsImplausibleValues(t *testing.T) {
	cfg := testConfig()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	if _, err := LoadNetwork(bytes.NewReader(blob)); err != nil {
		t.Fatalf("LoadNetwork on an unmodified blob: %v", err)
	}
	// Layout: magic, 9 ints, 19 floats (Norm is float 2, ThetaPlus 3,
	// TCTheta 4, WMax 9, ResetE 12), the weights, then the thresholds; 8
	// bytes each.
	const floats = 4 + 9*8
	weights := floats + 19*8
	thetas := weights + 8*cfg.InputSize*cfg.Neurons
	for _, c := range []struct {
		what  string
		at    int
		v     float64
		field string // the field an out-of-region error must name, if any
	}{
		{"infinite Norm", floats + 2*8, math.Inf(1), ""},
		{"Norm of 1e300", floats + 2*8, -1e300, ""},
		{"negative Norm", floats + 2*8, -38.4, "Norm"},
		{"negative ThetaPlus", floats + 3*8, -0.05, "ThetaPlus"},
		{"negative TCTheta", floats + 4*8, -1, "TCTheta"},
		{"negative WMax", floats + 9*8, -1e-250, "WMax"},
		{"ResetE above ThreshE", floats + 12*8, -40, "ResetE"},
		{"negative weight", weights + 8, -1, ""},
		{"NaN weight", weights + 16, math.NaN(), ""},
		{"weight above WMax", weights, cfg.WMax * 2, ""},
		{"infinite threshold", thetas, math.Inf(1), ""},
		{"negative threshold", thetas + 8, -0.5, ""},
	} {
		bad := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint64(bad[c.at:], math.Float64bits(c.v))
		_, err := LoadNetwork(bytes.NewReader(bad))
		if err == nil {
			t.Errorf("LoadNetwork accepted a snapshot with %s", c.what)
		} else if c.field != "" && !strings.Contains(err.Error(), c.field+" ") {
			t.Errorf("LoadNetwork error for %s does not name %s: %v", c.what, c.field, err)
		}
	}
}

func TestLoadNetworkRejectsBadMagic(t *testing.T) {
	if _, err := LoadNetwork(bytes.NewReader([]byte("NOPExxxx"))); err == nil {
		t.Error("accepted bad magic")
	}
}

// TestLoadNetworkRejectsRetiredFlags pins the two retired SNN1 slots (ints
// 7 and 8, once the weight-dependent STDP and temporal coding switches):
// Save writes 0 into both, and a file that sets either is refused with an
// error naming the flag.
func TestLoadNetworkRejectsRetiredFlags(t *testing.T) {
	n, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for _, c := range []struct {
		slot int
		name string
	}{{7, "weight-dependent STDP"}, {8, "temporal coding"}} {
		at := 4 + 8*c.slot
		if got := binary.LittleEndian.Uint64(blob[at:]); got != 0 {
			t.Fatalf("Save wrote %d into the retired %s slot, want 0", got, c.name)
		}
		bad := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint64(bad[at:], 1)
		_, err := LoadNetwork(bytes.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), c.name) {
			t.Errorf("LoadNetwork with the %s slot set: err %v, want one naming the flag", c.name, err)
		}
	}
}
