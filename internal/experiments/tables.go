package experiments

import (
	"context"
	"fmt"
	"io"

	"pathfinder/internal/core"
	"pathfinder/internal/hwcost"
	"pathfinder/internal/prefetch"
	"pathfinder/internal/runner"
	"pathfinder/internal/snn"
	"pathfinder/internal/workload"
)

// Table1Row is one benchmark's 1-tick/32-tick winner agreement.
type Table1Row struct {
	Trace     string
	MatchRate float64 // fraction of queries where the winners agreed
	Queries   uint64
}

// Table1 reproduces Table 1: on every full 32-tick SNN query, also compute
// the neuron with the highest potential after one (expected) tick and
// report how often it matches the interval's firing neuron. Traces run in
// parallel; each gets its own deterministically seeded PATHFINDER.
func Table1(w io.Writer, opts ...Option) ([]Table1Row, error) {
	o := newOptions(opts)
	rows := make([]Table1Row, len(o.traces))
	err := runner.ForEach(o.ctx, o.parallelism, len(o.traces), func(ctx context.Context, i int) error {
		tr := o.traces[i]
		accs, err := workload.GenerateCtx(ctx, tr, o.loads, o.seed)
		if err != nil {
			return err
		}
		cfg := core.DefaultConfig()
		cfg.CompareOneTick = true
		pf, err := newPathfinder(cfg, o.seed)
		if err != nil {
			return err
		}
		for _, a := range accs {
			pf.Advise(a, prefetch.Budget)
		}
		st := pf.Stats()
		rate := 0.0
		if st.OneTickQueries > 0 {
			rate = float64(st.OneTickMatches) / float64(st.OneTickQueries)
		}
		rows[i] = Table1Row{Trace: tr, MatchRate: rate, Queries: st.OneTickQueries}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\nTable 1: %% of queries where the highest-voltage neuron after 1 tick matched the 32-tick firing neuron (%d loads/trace)\n", o.loads)
	tw := newTable(w)
	fmt.Fprintln(tw, "trace\tmatched neuron\tqueries")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.2f%%\t%d\n", r.Trace, 100*r.MatchRate, r.Queries)
	}
	tw.Flush()
	return rows, nil
}

// Table2Row is one step of the §3.6 walkthrough.
type Table2Row struct {
	Pattern     []int
	Winner      int
	FiringTick  int
	NextBestPot float64
}

// Table2 reproduces Table 2 and the Figure 3 demonstration: feed the delta
// pattern {1,2,4} repeatedly to a fresh SNN (100-tick intervals, as in
// §3.6), then three noisy variants, then the original again, recording the
// firing neuron, its first firing tick, and the potential of the next-best
// neuron.
func Table2(w io.Writer, seed int64) ([]Table2Row, error) {
	enc, err := core.NewEncoder(127, 3)
	if err != nil {
		return nil, err
	}
	cfg := snn.DefaultConfig(enc.InputSize())
	cfg.Ticks = 100
	cfg.Seed = seed
	net, err := snn.New(cfg)
	if err != nil {
		return nil, err
	}

	patterns := [][]int{
		{1, 2, 4}, {1, 2, 4}, {1, 2, 4}, {1, 2, 4}, {1, 2, 4}, {1, 2, 4},
		{1, 3, 4}, {1, 2, 5}, {1, 4, 2}, {1, 3, 6},
		{1, 2, 4},
	}
	pixels := make([]float64, enc.InputSize())
	var rows []Table2Row
	for _, p := range patterns {
		if err := enc.Encode(p, pixels); err != nil {
			return nil, err
		}
		res, err := net.Present(pixels, true)
		if err != nil {
			return nil, err
		}
		// Potential of the best non-winning neuron at interval end.
		pots := net.Potentials()
		nextBest := 0.0
		first := true
		for j, v := range pots {
			if j == res.Winner {
				continue
			}
			if first || v > nextBest {
				nextBest = v
				first = false
			}
		}
		rows = append(rows, Table2Row{
			Pattern:     p,
			Winner:      res.Winner,
			FiringTick:  res.FirstFireTick,
			NextBestPot: nextBest,
		})
	}
	fmt.Fprintln(w, "\nTable 2: SNN firing/learning behaviour (100-tick intervals)")
	tw := newTable(w)
	fmt.Fprintln(tw, "input pattern\tfiring neuron\tfiring tick\tnext-best potential")
	for _, r := range rows {
		fmt.Fprintf(tw, "%v\t%d\t%d\t%.1f\n", r.Pattern, r.Winner, r.FiringTick, r.NextBestPot)
	}
	tw.Flush()
	return rows, nil
}

// Table7Row is one benchmark's delta-range occupancy.
type Table7Row struct {
	Trace    string
	Deltas   int
	Within31 int
	Within15 int
}

// Table7 reproduces Table 7: how many same-page deltas fall within (−31,31)
// and (−15,15) per trace. Traces run in parallel.
func Table7(w io.Writer, opts ...Option) ([]Table7Row, error) {
	o := newOptions(opts)
	rows := make([]Table7Row, len(o.traces))
	err := runner.ForEach(o.ctx, o.parallelism, len(o.traces), func(ctx context.Context, i int) error {
		tr := o.traces[i]
		accs, err := workload.GenerateCtx(ctx, tr, o.loads, o.seed)
		if err != nil {
			return err
		}
		st := workload.ComputeDeltaStats(accs, 31, 15)
		rows[i] = Table7Row{
			Trace:    tr,
			Deltas:   st.Deltas,
			Within31: st.InRange[31],
			Within15: st.InRange[15],
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\nTable 7: deltas within range, out of %d loads/trace\n", o.loads)
	tw := newTable(w)
	fmt.Fprintln(tw, "trace\t#deltas\tin (-31,31)\tin (-15,15)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", r.Trace, r.Deltas, r.Within31, r.Within15)
	}
	tw.Flush()
	return rows, nil
}

// Table8Row is one benchmark's per-1K-access delta statistics.
type Table8Row struct {
	Trace       string
	AvgDeltas   float64
	AvgDistinct float64
	AvgTop5     float64
}

// Table8 reproduces Table 8: per 1K accesses, the mean number of deltas,
// distinct deltas, and the summed occurrences of the top-5 distinct deltas.
// Traces run in parallel.
func Table8(w io.Writer, opts ...Option) ([]Table8Row, error) {
	o := newOptions(opts)
	rows := make([]Table8Row, len(o.traces))
	err := runner.ForEach(o.ctx, o.parallelism, len(o.traces), func(ctx context.Context, i int) error {
		tr := o.traces[i]
		accs, err := workload.GenerateCtx(ctx, tr, o.loads, o.seed)
		if err != nil {
			return err
		}
		st := workload.ComputeDeltaStats(accs)
		rows[i] = Table8Row{
			Trace:       tr,
			AvgDeltas:   st.PerWindow.AvgDeltas,
			AvgDistinct: st.PerWindow.AvgDistinct,
			AvgTop5:     st.PerWindow.AvgTop5,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "\nTable 8: per-1K-access delta statistics")
	tw := newTable(w)
	fmt.Fprintln(tw, "trace\tavg #deltas\tavg #distinct\tsum of top-5 occurrences")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.0f\n", r.Trace, r.AvgDeltas, r.AvgDistinct, r.AvgTop5)
	}
	tw.Flush()
	return rows, nil
}

// Table9 reproduces Table 9 (SNN area/power across PE count and delta
// range) plus the §3.5 supporting-table and total-footprint estimates.
func Table9(w io.Writer) []hwcost.Table9Row {
	rows := hwcost.Table9()
	fmt.Fprintln(w, "\nTable 9: area and power of PATHFINDER implementations (SNN only, 12 nm)")
	tw := newTable(w)
	fmt.Fprintln(tw, "configuration\tarea (mm^2)\tpower (W)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d pe, range %d\t%.3f\t%.3f\n", r.PEs, r.DeltaRange, r.Cost.AreaMM2, r.Cost.PowerW)
	}
	tw.Flush()

	tt, err := hwcost.TrainingTable(1024, 120)
	if err != nil {
		panic(err) // unreachable: fixed valid inputs
	}
	it, err := hwcost.InferenceTable(50, 24)
	if err != nil {
		panic(err)
	}
	total, err := hwcost.Total(hwcost.DefaultConfig())
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "\nSupporting tables (§3.5): training table %.4f mm^2 / %.1f mW, inference table %.5f mm^2 / %.3f mW\n",
		tt.AreaMM2, tt.PowerW*1000, it.AreaMM2, it.PowerW*1000)
	fmt.Fprintf(w, "Total (abstract headline): %.2f mm^2, %.2f W — %.2f%% area and %.2f%% power of an AMD Ryzen 7 2700X\n",
		total.AreaMM2, total.PowerW, 100*total.AreaMM2/213, 100*total.PowerW/105)
	return rows
}

// PrintConfig prints the configuration tables of the methodology section:
// the machine (Table 3), the SNN hyper-parameters (Table 4), and the
// workload suite (Table 5).
func PrintConfig(w io.Writer, opts ...Option) {
	o := newOptions(opts)
	cfg := o.sim
	fmt.Fprintln(w, "\nTable 3: simulator parameters")
	tw := newTable(w)
	fmt.Fprintf(tw, "L1D\t%d sets, %d ways, latency %d cycles\n", cfg.L1Sets, cfg.L1Ways, cfg.L1Lat)
	fmt.Fprintf(tw, "L2\t%d sets, %d ways, latency %d cycles\n", cfg.L2Sets, cfg.L2Ways, cfg.L2Lat)
	fmt.Fprintf(tw, "LLC\t%d sets, %d ways, latency %d cycles\n", cfg.LLCSets, cfg.LLCWays, cfg.LLCLat)
	fmt.Fprintf(tw, "DRAM\ttRP=tRCD=tCAS=%d cycles, %d channel(s) x %d ranks x %d banks, read queue %d\n",
		cfg.DRAM.TRP, cfg.DRAM.Channels, cfg.DRAM.Ranks, cfg.DRAM.Banks, cfg.DRAM.ReadQueue)
	fmt.Fprintf(tw, "core\t%d-wide retire, %d-entry ROB\n", cfg.Width, cfg.ROB)
	tw.Flush()

	scfg := snn.DefaultConfig(127 * 3)
	fmt.Fprintln(w, "\nTable 4: SNN network parameters")
	tw = newTable(w)
	fmt.Fprintf(tw, "n_input\t%d (D=127 x H=3)\n", scfg.InputSize)
	fmt.Fprintf(tw, "n_neurons\t%d\n", scfg.Neurons)
	fmt.Fprintf(tw, "exc\t%.1f\n", scfg.Exc)
	fmt.Fprintf(tw, "inh\t%.1f\n", scfg.Inh)
	fmt.Fprintf(tw, "norm\t%.1f\n", scfg.Norm)
	fmt.Fprintf(tw, "theta_plus\t%.2f\n", scfg.ThetaPlus)
	fmt.Fprintf(tw, "ticks\t%d\n", scfg.Ticks)
	tw.Flush()

	fmt.Fprintln(w, "\nTable 5: tested workloads")
	tw = newTable(w)
	fmt.Fprintln(tw, "suite\ttrace\tinstructions per load (mean)")
	for _, s := range workload.Suite() {
		fmt.Fprintf(tw, "%s\t%s\t%d\n", s.Suite, s.Name, s.IDGap)
	}
	tw.Flush()
}
