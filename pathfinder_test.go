package pathfinder

import (
	"context"
	"testing"

	"pathfinder/internal/prefetch"
)

// collectTrace streams the named benchmark from its generator into a
// slice, for tests that replay one trace several times.
func collectTrace(tb testing.TB, name string, n int, seed int64) []Access {
	tb.Helper()
	src, err := GenerateTraceSource(name, n, seed)
	if err != nil {
		tb.Fatal(err)
	}
	accs, err := CollectTrace(src)
	if err != nil {
		tb.Fatal(err)
	}
	return accs
}

// generatePrefetches drives p over an in-memory trace.
func generatePrefetches(tb testing.TB, p OnlinePrefetcher, accs []Access) []PrefetchEntry {
	tb.Helper()
	pfs, err := GeneratePrefetchesStream(context.Background(), p, NewSliceTraceSource(accs), Budget)
	if err != nil {
		tb.Fatal(err)
	}
	return pfs
}

// simulate replays one in-memory trace and its prefetch file through
// Simulate.
func simulate(tb testing.TB, cfg SimConfig, accs []Access, pfs []PrefetchEntry) SimResult {
	tb.Helper()
	res, err := Simulate(cfg, []TraceSource{NewSliceTraceSource(accs)}, [][]PrefetchEntry{pfs})
	if err != nil {
		tb.Fatal(err)
	}
	return res[0]
}

// TestEndToEndQuickstart exercises the README quickstart path: evaluate
// PATHFINDER on a generated trace and check the metrics are sane.
func TestEndToEndQuickstart(t *testing.T) {
	pf, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := Eval(context.Background(), EvalJob{Trace: "cc-5", Loads: 10_000, Prefetcher: pf})
	if err != nil {
		t.Fatal(err)
	}
	if m.IPC <= 0 || m.IPC > 4 {
		t.Errorf("IPC = %v", m.IPC)
	}
	if m.Accuracy < 0 || m.Accuracy > 1 || m.Coverage < 0 || m.Coverage > 1 {
		t.Errorf("accuracy %v / coverage %v out of range", m.Accuracy, m.Coverage)
	}
	if m.Issued == 0 {
		t.Error("PATHFINDER issued no prefetches")
	}
}

func TestEvaluateEmptyTrace(t *testing.T) {
	pf, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Eval(context.Background(), EvalJob{Prefetcher: pf, Accs: []Access{}}); err == nil {
		t.Error("Eval accepted an empty trace")
	}
}

// TestAllBaselinesRunEndToEnd runs every online technique of the registry,
// by its canonical name, and the three composers through Eval on one short
// trace, as an integration smoke test across prefetch + sim + workload.
func TestAllBaselinesRunEndToEnd(t *testing.T) {
	accs := collectTrace(t, "623-xalan-s1", 8_000, 2)
	cfg := ScaledSimConfig()
	cfg.Warmup = len(accs) / 10
	base := simulate(t, cfg, accs, nil)
	type technique struct {
		name  string
		build func() (OnlinePrefetcher, error)
	}
	cases := []technique{
		{"NewEnsemble", func() (OnlinePrefetcher, error) {
			return NewEnsemble("ens", &prefetch.NextLine{Degree: 1}, prefetch.NewSISB()), nil
		}},
		{"NewDynamicEnsemble", func() (OnlinePrefetcher, error) {
			return NewDynamicEnsemble("dyn", &prefetch.NextLine{}, prefetch.NewSISB()), nil
		}},
		{"NewThrottle", func() (OnlinePrefetcher, error) {
			return NewThrottle(&prefetch.NextLine{}), nil
		}},
	}
	for _, name := range []string{
		"none", "nextline", "bo", "bo-throttled", "spp", "sisb", "isb", "pythia",
		"stride", "vldp", "sms", "nextpage", "pathfinder", "pathfinder-1tick",
		"pf+nl", "pf+nl+sisb", "dynamic-ensemble",
	} {
		cases = append(cases, technique{name, func() (OnlinePrefetcher, error) {
			return NewPrefetcherByName(name, 1)
		}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			m, err := Eval(context.Background(), EvalJob{
				Prefetcher: p, Accs: accs, Sim: &cfg, Baseline: &base.LLCLoadMisses,
			})
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			if m.IPC <= 0 {
				t.Errorf("%s: IPC %v", p.Name(), m.IPC)
			}
			if p.Name() == "NoPF" && m.Issued != 0 {
				t.Errorf("NoPF issued %d prefetches", m.Issued)
			}
		})
	}
}

// TestThrottleAndISBPublicAPI runs the FDP throttle, ISB, the page and
// delta baselines and the dynamic ensemble through Eval on a second trace
// and seed, built the way a caller of the package builds them: composers
// directly, named techniques through NewPrefetcherByName.
func TestThrottleAndISBPublicAPI(t *testing.T) {
	accs := collectTrace(t, "623-xalan-s1", 6_000, 1)
	cfg := ScaledSimConfig()
	cfg.Warmup = len(accs) / 10
	base := simulate(t, cfg, accs, nil)
	pfs := []OnlinePrefetcher{
		NewThrottle(&prefetch.NextLine{}),
		NewDynamicEnsemble("dyn", &prefetch.NextLine{}, prefetch.NewSISB()),
	}
	for _, name := range []string{"isb", "nextpage", "vldp", "sms", "stride"} {
		p, err := NewPrefetcherByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		pfs = append(pfs, p)
	}
	for _, p := range pfs {
		m, err := Eval(context.Background(), EvalJob{
			Prefetcher: p, Accs: accs, Sim: &cfg, Baseline: &base.LLCLoadMisses,
		})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if m.IPC <= 0 {
			t.Errorf("%s: IPC %v", p.Name(), m.IPC)
		}
	}
}

// TestOfflineBaselinesRunEndToEnd covers the Delta-LSTM and Voyager file
// generators on a short trace.
func TestOfflineBaselinesRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("offline baselines are slow")
	}
	accs := collectTrace(t, "471-omnetpp-s1", 6_000, 3)
	cfg := ScaledSimConfig()
	cfg.Warmup = len(accs) / 10
	base := simulate(t, cfg, accs, nil)

	dcfg := DefaultDeltaLSTMConfig()
	dcfg.Epochs = 1
	dpfs, err := GenerateDeltaLSTM(dcfg, accs, Budget)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Eval(context.Background(), EvalJob{
		Label: "DeltaLSTM", Accs: accs, File: dpfs, Sim: &cfg, Baseline: &base.LLCLoadMisses,
	}); err != nil {
		t.Fatal(err)
	}

	vcfg := DefaultVoyagerConfig()
	vpfs, err := GenerateVoyager(vcfg, accs, Budget)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Eval(context.Background(), EvalJob{
		Label: "Voyager", Accs: accs, File: vpfs, Sim: &cfg, Baseline: &base.LLCLoadMisses,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Issued == 0 {
		t.Error("Voyager issued no prefetches")
	}
}

func TestHardwareCostHeadline(t *testing.T) {
	c, err := HardwareCost(DefaultHWConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.AreaMM2 < 0.2 || c.AreaMM2 > 0.26 {
		t.Errorf("area %v, paper headline 0.23", c.AreaMM2)
	}
	if c.PowerW < 0.4 || c.PowerW > 0.55 {
		t.Errorf("power %v, paper headline 0.5", c.PowerW)
	}
}

func TestWorkloadsListStable(t *testing.T) {
	names := Workloads()
	if len(names) != 11 {
		t.Fatalf("Workloads() = %d entries, want 11", len(names))
	}
	if names[0] != "cc-5" {
		t.Errorf("first workload %q", names[0])
	}
}

func TestGenerateTraceUnknown(t *testing.T) {
	if _, err := GenerateTraceSource("nope", 100, 1); err == nil {
		t.Error("accepted unknown benchmark")
	}
}

// TestPrefetchFileRoundTripThroughSim checks the GeneratePrefetchesStream
// output is consumable by Simulate.
func TestPrefetchFileRoundTripThroughSim(t *testing.T) {
	accs := collectTrace(t, "bfs-10", 5_000, 1)
	pfs := generatePrefetches(t, &prefetch.NextLine{}, accs)
	if len(pfs) != 2*len(accs) {
		t.Fatalf("next-line produced %d prefetches for %d accesses", len(pfs), len(accs))
	}
	res := simulate(t, ScaledSimConfig(), accs, pfs)
	if res.PrefIssued == 0 || res.PrefUseful == 0 {
		t.Errorf("sim consumed %d prefetches, %d useful", res.PrefIssued, res.PrefUseful)
	}
}

func TestSimulateMultiPublicAPI(t *testing.T) {
	a := collectTrace(t, "cc-5", 5_000, 1)
	b := collectTrace(t, "bfs-10", 5_000, 2)
	for i := range b {
		b[i].Addr += 1 << 42
	}
	res, err := Simulate(ScaledSimConfig(), []TraceSource{NewSliceTraceSource(a), NewSliceTraceSource(b)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].IPC <= 0 || res[1].IPC <= 0 {
		t.Fatalf("results %+v", res)
	}
}
