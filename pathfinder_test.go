package pathfinder

import (
	"context"
	"testing"
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

// TestAllBaselinesRunEndToEnd runs every online baseline through one short
// trace, as an integration smoke test across prefetch + sim + workload.
func TestAllBaselinesRunEndToEnd(t *testing.T) {
	accs := collectTrace(t, "623-xalan-s1", 8_000, 2)
	cfg := ScaledSimConfig()
	cfg.Warmup = len(accs) / 10
	base, err := Simulate(cfg, accs, nil)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	baselines := []OnlinePrefetcher{
		NewNoPrefetch(),
		NewNextLine(0),
		NewBestOffset(),
		NewSPP(),
		NewSISB(),
		NewPythia(1),
		pf,
		NewEnsemble("ens", NewNextLine(1), NewSISB()),
	}
	for _, p := range baselines {
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
	base, err := Simulate(cfg, accs, nil)
	if err != nil {
		t.Fatal(err)
	}

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
	pfs := generatePrefetches(t, NewNextLine(0), accs)
	if len(pfs) != 2*len(accs) {
		t.Fatalf("next-line produced %d prefetches for %d accesses", len(pfs), len(accs))
	}
	cfg := ScaledSimConfig()
	res, err := Simulate(cfg, accs, pfs)
	if err != nil {
		t.Fatal(err)
	}
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
	res, err := SimulateMulti(ScaledSimConfig(), [][]Access{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].IPC <= 0 || res[1].IPC <= 0 {
		t.Fatalf("results %+v", res)
	}
}

func TestThrottleAndISBPublicAPI(t *testing.T) {
	accs := collectTrace(t, "623-xalan-s1", 6_000, 1)
	cfg := ScaledSimConfig()
	cfg.Warmup = len(accs) / 10
	base, err := Simulate(cfg, accs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []OnlinePrefetcher{
		NewThrottle(NewNextLine(0)),
		NewISB(),
		NewNextPage(),
		NewVLDP(),
		NewSMS(),
		NewStride(),
		NewDynamicEnsemble("dyn", NewNextLine(0), NewSISB()),
	} {
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
