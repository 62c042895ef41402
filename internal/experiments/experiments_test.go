package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// smallOpts keeps experiment tests fast: two traces, short runs, no offline
// neural baselines.
func smallOpts() []Option {
	return []Option{
		WithLoads(6000),
		WithSeed(1),
		WithTraces("cc-5", "623-xalan-s1"),
		WithSkipOffline(true),
	}
}

// withExtra appends options to the small-test base.
func withExtra(extra ...Option) []Option {
	return append(smallOpts(), extra...)
}

func TestOptionsDefaults(t *testing.T) {
	o := newOptions(nil)
	if o.loads != 50_000 || o.seed != 1 || len(o.traces) != 11 {
		t.Errorf("defaults: %+v", o)
	}
	if o.sim.Width == 0 {
		t.Error("sim config not defaulted")
	}
	if o.ctx == nil {
		t.Error("context not defaulted")
	}
}

func TestOptionsApply(t *testing.T) {
	o := newOptions([]Option{WithLoads(123), WithSeed(9), WithTraces("cc-5"), WithParallelism(2)})
	if o.loads != 123 || o.seed != 9 || len(o.traces) != 1 || o.parallelism != 2 {
		t.Errorf("options not applied: %+v", o)
	}
	// Non-positive loads and zero seeds keep the defaults.
	o = newOptions([]Option{WithLoads(0), WithSeed(0)})
	if o.loads != 50_000 || o.seed != 1 {
		t.Errorf("guard rails not applied: %+v", o)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); got < 3.99 || got > 4.01 {
		t.Errorf("geomean(2,8) = %v, want 4", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean(nil) = %v", got)
	}
	if got := geomean([]float64{0, 4}); got != 4 {
		t.Errorf("geomean skipping zeros = %v, want 4", got)
	}
}

func TestMean(t *testing.T) {
	if got := mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %v", got)
	}
	if got := mean(nil); got != 0 {
		t.Errorf("mean(nil) = %v", got)
	}
}

func TestFig4SmallRun(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig4(&buf, smallOpts()...)
	if err != nil {
		t.Fatalf("Fig4: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows for %d traces, want 2", len(res.Rows))
	}
	for _, name := range []string{"NoPF", "BO", "SISB", "SPP", "Pythia", "Pathfinder", "PF+NL", "PF+NL+SISB"} {
		m, ok := res.Rows["cc-5"][name]
		if !ok {
			t.Fatalf("missing prefetcher %q", name)
		}
		if m.IPC <= 0 {
			t.Errorf("%s IPC = %v", name, m.IPC)
		}
	}
	// Offline baselines skipped.
	if _, ok := res.Rows["cc-5"]["Voyager"]; ok {
		t.Error("Voyager present despite WithSkipOffline")
	}
	out := buf.String()
	for _, want := range []string{"Figure 4a", "Figure 4b", "Figure 4c", "Table 6"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if res.MeanIPC("Pathfinder") <= 0 {
		t.Error("MeanIPC not positive")
	}
}

func TestFig5DeltaRangeTradeoff(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig5(&buf, smallOpts()...)
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	if len(res.Configs) != 3 {
		t.Fatalf("configs = %v", res.Configs)
	}
	// Coverage must not increase when the range shrinks (fewer deltas
	// encodable; Figure 5 / Table 7).
	for tr, row := range res.Rows {
		if row["range 31"].Coverage > row["range 127"].Coverage+0.05 {
			t.Errorf("%s: range-31 coverage %.3f > range-127 %.3f", tr,
				row["range 31"].Coverage, row["range 127"].Coverage)
		}
	}
}

func TestFig6NeuronSweepShape(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig6(&buf, withExtra(WithTraces("cc-5"))...)
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	if len(res.Configs) != 10 {
		t.Fatalf("configs = %v", res.Configs)
	}
	if _, ok := res.Rows["cc-5"]["50n/2l"]; !ok {
		t.Error("missing 50n/2l config")
	}
}

func TestFig7OneTickClose(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig7(&buf, smallOpts()...)
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	for tr, row := range res.Rows {
		full, one := row["32-tick"].IPC, row["1-tick"].IPC
		if full <= 0 || one <= 0 {
			t.Fatalf("%s: non-positive IPCs", tr)
		}
		if diff := (one - full) / full; diff < -0.1 || diff > 0.1 {
			t.Errorf("%s: 1-tick IPC deviates %.1f%% from 32-tick", tr, 100*diff)
		}
	}
}

func TestFig8DutyCycle(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig8(&buf, withExtra(WithTraces("cc-5"))...)
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	if len(res.Configs) != 9 {
		t.Fatalf("configs = %v", res.Configs)
	}
}

func TestFig9VariantLadder(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig9(&buf, withExtra(WithTraces("cc-5"))...)
	if err != nil {
		t.Fatalf("Fig9: %v", err)
	}
	if len(res.Configs) != 5 {
		t.Fatalf("configs = %v", res.Configs)
	}
}

func TestTable1MatchRates(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table1(&buf, smallOpts()...)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Queries == 0 {
			t.Errorf("%s: no queries", r.Trace)
		}
		if r.MatchRate < 0.4 {
			t.Errorf("%s: match rate %.2f; the paper reports 0.83-0.94", r.Trace, r.MatchRate)
		}
	}
}

func TestTable2Walkthrough(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table2(&buf, 7)
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	if len(rows) != 11 {
		t.Fatalf("rows = %d, want 11 (as in the paper's Table 2)", len(rows))
	}
	// The repeated pattern {1,2,4} must keep the same winner (§3.6).
	w := rows[0].Winner
	if w < 0 {
		t.Fatal("no neuron fired on the first interval")
	}
	for i := 1; i < 6; i++ {
		if rows[i].Winner != w {
			t.Errorf("interval %d: winner %d, want stable %d", i, rows[i].Winner, w)
		}
	}
	if rows[10].Winner != w {
		t.Errorf("final {1,2,4} interval: winner %d, want %d", rows[10].Winner, w)
	}
}

func TestTable7RangesNested(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table7(&buf, smallOpts()...)
	if err != nil {
		t.Fatalf("Table7: %v", err)
	}
	for _, r := range rows {
		if r.Within15 > r.Within31 || r.Within31 > r.Deltas {
			t.Errorf("%s: inconsistent counts %+v", r.Trace, r)
		}
	}
}

func TestTable8Positive(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table8(&buf, smallOpts()...)
	if err != nil {
		t.Fatalf("Table8: %v", err)
	}
	for _, r := range rows {
		if r.AvgDeltas <= 0 || r.AvgDistinct <= 0 || r.AvgTop5 <= 0 {
			t.Errorf("%s: non-positive stats %+v", r.Trace, r)
		}
		if r.AvgTop5 > r.AvgDeltas {
			t.Errorf("%s: top-5 occurrences exceed total deltas", r.Trace)
		}
	}
}

func TestTable9Print(t *testing.T) {
	var buf bytes.Buffer
	rows := Table9(&buf)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !strings.Contains(buf.String(), "0.2") {
		t.Error("output missing headline numbers")
	}
}

func TestPrintConfig(t *testing.T) {
	var buf bytes.Buffer
	PrintConfig(&buf, smallOpts()...)
	out := buf.String()
	for _, want := range []string{"Table 3", "Table 4", "Table 5", "cc-5", "n_neurons"} {
		if !strings.Contains(out, want) {
			t.Errorf("config output missing %q", want)
		}
	}
}

func TestExtendedLineup(t *testing.T) {
	var buf bytes.Buffer
	res, err := Extended(&buf, withExtra(WithTraces("cc-5"))...)
	if err != nil {
		t.Fatalf("Extended: %v", err)
	}
	if len(res.Configs) != 6 {
		t.Fatalf("configs = %v", res.Configs)
	}
	for _, name := range res.Configs {
		if res.Rows["cc-5"][name].IPC <= 0 {
			t.Errorf("%s: IPC %v", name, res.Rows["cc-5"][name].IPC)
		}
	}
}

func TestNoiseToleranceDegradesGracefully(t *testing.T) {
	var buf bytes.Buffer
	rows, err := NoiseTolerance(&buf, withExtra(WithLoads(8000))...)
	if err != nil {
		t.Fatalf("NoiseTolerance: %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// At zero noise every delta learner should achieve solid coverage.
	if rows[0].Coverage["Pathfinder"] < 0.3 {
		t.Errorf("PF zero-noise coverage %.3f", rows[0].Coverage["Pathfinder"])
	}
	// Noise must hurt: coverage at 30%% noise below coverage at 0.
	if rows[4].Coverage["Pathfinder"] >= rows[0].Coverage["Pathfinder"] {
		t.Errorf("noise did not reduce PF coverage: %.3f vs %.3f",
			rows[4].Coverage["Pathfinder"], rows[0].Coverage["Pathfinder"])
	}
}

func TestInterference(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Interference(&buf, withExtra(WithLoads(8000))...)
	if err != nil {
		t.Fatalf("Interference: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SoloIPC <= 0 || r.SharedIPC <= 0 {
			t.Errorf("%s: non-positive IPCs %+v", r.Prefetcher, r)
		}
		if r.SharedIPC >= r.SoloIPC {
			t.Errorf("%s: sharing did not cost IPC (%.3f vs %.3f)", r.Prefetcher, r.SharedIPC, r.SoloIPC)
		}
	}
}

func TestDegreeSweep(t *testing.T) {
	var buf bytes.Buffer
	res, err := Degree(&buf, withExtra(WithTraces("cc-5"))...)
	if err != nil {
		t.Fatalf("Degree: %v", err)
	}
	if len(res.Configs) != 5 {
		t.Fatalf("configs = %v", res.Configs)
	}
	row := res.Rows["cc-5"]
	// Degree 4 must not issue fewer prefetches than degree 1.
	if row["deg4/2l"].Issued < row["deg1/1l"].Issued {
		t.Errorf("degree 4 issued %d < degree 1 issued %d", row["deg4/2l"].Issued, row["deg1/1l"].Issued)
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{1, 2, 3})
	if s.Mean != 2 || s.N != 3 {
		t.Errorf("summary %+v", s)
	}
	if s.Stddev < 0.99 || s.Stddev > 1.01 {
		t.Errorf("stddev %v, want 1", s.Stddev)
	}
	if got := summarize(nil); got.N != 0 || got.Mean != 0 {
		t.Errorf("empty summary %+v", got)
	}
	if got := summarize([]float64{5}).String(); got != "5.000" {
		t.Errorf("single-sample String() = %q", got)
	}
}

func TestSeedStudy(t *testing.T) {
	var buf bytes.Buffer
	rows, err := SeedStudy(&buf, 2, withExtra(WithLoads(5000), WithTraces("cc-5"))...)
	if err != nil {
		t.Fatalf("SeedStudy: %v", err)
	}
	if len(rows) != 1 || rows[0].IPC.N != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].IPC.Mean <= 0 {
		t.Error("non-positive mean IPC")
	}
}

func TestSNNSensitivity(t *testing.T) {
	var buf bytes.Buffer
	res, err := SNNSensitivity(&buf, withExtra(WithLoads(5000))...)
	if err != nil {
		t.Fatalf("SNNSensitivity: %v", err)
	}
	if len(res.Configs) != 8 {
		t.Fatalf("configs = %v", res.Configs)
	}
	for _, c := range res.Configs {
		if res.Rows["cc-5"][c].IPC <= 0 {
			t.Errorf("%s: IPC %v", c, res.Rows["cc-5"][c].IPC)
		}
	}
}

func TestInputEncodings(t *testing.T) {
	var buf bytes.Buffer
	res, err := InputEncodings(&buf, withExtra(WithLoads(5000), WithTraces("cc-5"))...)
	if err != nil {
		t.Fatalf("InputEncodings: %v", err)
	}
	if len(res.Configs) != 3 {
		t.Fatalf("configs = %v", res.Configs)
	}
	for _, c := range res.Configs {
		if res.Rows["cc-5"][c].IPC <= 0 {
			t.Errorf("%s: IPC %v", c, res.Rows["cc-5"][c].IPC)
		}
	}
}
