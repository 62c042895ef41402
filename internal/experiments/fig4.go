package experiments

import (
	"fmt"
	"io"

	"pathfinder/internal/runner"
)

// Fig4Result holds the Figure 4 comparison: per-trace, per-prefetcher IPC,
// accuracy and coverage, plus the Table 6 issued-prefetch counts.
type Fig4Result struct {
	// Prefetchers is the column order.
	Prefetchers []string
	// Rows maps trace -> prefetcher -> metrics.
	Rows map[string]map[string]Metrics
	// BaselineIPC maps trace -> no-prefetch IPC.
	BaselineIPC map[string]float64
}

// Fig4Prefetchers is the Figure 4 lineup, in the paper's order. Each label
// is also its technique's registry name (names are case-insensitive).
var Fig4Prefetchers = []string{
	"NoPF", "BO", "SISB", "Voyager", "DeltaLSTM", "SPP", "Pythia",
	"Pathfinder", "PF+NL", "PF+NL+SISB",
}

// Fig4 reproduces Figure 4 (a: IPC, b: accuracy, c: coverage) and Table 6
// (issued prefetches of SPP, Pythia and PATHFINDER): every prefetcher of
// §4.3 on every benchmark of Table 5, evaluated as one parallel grid.
func Fig4(w io.Writer, opts ...Option) (Fig4Result, error) {
	o := newOptions(opts)
	res := Fig4Result{
		Rows:        make(map[string]map[string]Metrics),
		BaselineIPC: make(map[string]float64),
	}
	for _, name := range Fig4Prefetchers {
		if o.skipOffline && (name == "Voyager" || name == "DeltaLSTM") {
			continue
		}
		res.Prefetchers = append(res.Prefetchers, name)
	}

	var jobs []runner.Job
	for _, tr := range o.traces {
		for _, name := range res.Prefetchers {
			if name == "NoPF" {
				continue
			}
			job, err := o.job(tr, name, name)
			if err != nil {
				return Fig4Result{}, err
			}
			jobs = append(jobs, job)
		}
	}
	results, err := o.run(jobs)
	if err != nil {
		return Fig4Result{}, fmt.Errorf("experiments: Figure 4: %w", err)
	}
	for _, r := range results {
		row := res.Rows[r.Trace]
		if row == nil {
			row = make(map[string]Metrics, len(res.Prefetchers))
			res.Rows[r.Trace] = row
			res.BaselineIPC[r.Trace] = r.BaselineIPC
			row["NoPF"] = Metrics{
				Prefetcher:     "NoPF",
				Trace:          r.Trace,
				IPC:            r.BaselineIPC,
				BaselineMisses: r.BaselineMisses,
			}
		}
		row[r.Prefetcher] = r.Metrics
	}

	res.print(w, o)
	return res, nil
}

func (r Fig4Result) print(w io.Writer, o options) {
	for _, metric := range []string{"IPC (Figure 4a)", "Accuracy (Figure 4b)", "Coverage (Figure 4c)"} {
		fmt.Fprintf(w, "\n%s — %d loads/trace\n", metric, o.loads)
		tw := newTable(w)
		fmt.Fprint(tw, "trace")
		for _, p := range r.Prefetchers {
			fmt.Fprintf(tw, "\t%s", p)
		}
		fmt.Fprintln(tw)
		perPF := make(map[string][]float64)
		for _, tr := range o.traces {
			fmt.Fprint(tw, tr)
			for _, p := range r.Prefetchers {
				m := r.Rows[tr][p]
				var v float64
				switch metric[0] {
				case 'I':
					v = m.IPC
				case 'A':
					v = m.Accuracy
				default:
					v = m.Coverage
				}
				perPF[p] = append(perPF[p], v)
				fmt.Fprintf(tw, "\t%.3f", v)
			}
			fmt.Fprintln(tw)
		}
		fmt.Fprint(tw, "mean")
		for _, p := range r.Prefetchers {
			agg := mean(perPF[p])
			if metric[0] == 'I' {
				agg = geomean(perPF[p])
			}
			fmt.Fprintf(tw, "\t%.3f", agg)
		}
		fmt.Fprintln(tw)
		tw.Flush()
	}

	fmt.Fprintln(w, "\nIssued prefetches (Table 6)")
	tw := newTable(w)
	fmt.Fprintln(tw, "trace\tSPP\tPythia\tPathfinder")
	var sums [3]uint64
	for _, tr := range o.traces {
		row := r.Rows[tr]
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", tr, row["SPP"].Issued, row["Pythia"].Issued, row["Pathfinder"].Issued)
		sums[0] += row["SPP"].Issued
		sums[1] += row["Pythia"].Issued
		sums[2] += row["Pathfinder"].Issued
	}
	n := uint64(len(o.traces))
	if n > 0 {
		fmt.Fprintf(tw, "average\t%d\t%d\t%d\n", sums[0]/n, sums[1]/n, sums[2]/n)
	}
	tw.Flush()
}

// MeanIPC returns the mean IPC of one prefetcher across the traces in the
// result (geometric mean).
func (r Fig4Result) MeanIPC(prefetcher string) float64 {
	var vals []float64
	for _, row := range r.Rows {
		if m, ok := row[prefetcher]; ok {
			vals = append(vals, m.IPC)
		}
	}
	return geomean(vals)
}
