package experiments

import (
	"context"
	"fmt"
	"io"

	"pathfinder/internal/core"
	"pathfinder/internal/prefetch"
	"pathfinder/internal/runner"
	"pathfinder/internal/serve"
	"pathfinder/internal/sim"
	"pathfinder/internal/snn"
	"pathfinder/internal/trace"
	"pathfinder/internal/workload"
)

// Extended runs the lineup the paper's related-work section implies but
// does not plot: PATHFINDER against the wider rule-based field (per-PC
// Stride, VLDP, SMS) plus the two ensemble policies — the paper's fixed
// priority and the dynamic usefulness-scored priority it names as future
// work (§5).
func Extended(w io.Writer, opts ...Option) (SweepResult, error) {
	o := newOptions(opts)
	res := SweepResult{Rows: make(map[string]map[string]Metrics)}
	// lineup pairs each display label with its registry technique.
	lineup := []struct{ label, technique string }{
		{"Stride", "stride"},
		{"VLDP", "vldp"},
		{"SMS", "sms"},
		{"Pathfinder", "pathfinder"},
		{"PF+SISB+NL (fixed)", "pf+nl+sisb"},
		{"PF+SISB+NL (dynamic)", "dynamic-ensemble"},
	}
	for _, m := range lineup {
		res.Configs = append(res.Configs, m.label)
	}
	jobs := make([]runner.Job, 0, len(o.traces)*len(lineup))
	for _, tr := range o.traces {
		for _, m := range lineup {
			job, err := o.job(tr, m.label, m.technique)
			if err != nil {
				return SweepResult{}, err
			}
			jobs = append(jobs, job)
		}
	}
	results, err := o.run(jobs)
	if err != nil {
		return SweepResult{}, fmt.Errorf("experiments: extended lineup: %w", err)
	}
	res.collect(results)
	res.print(w, "Extended lineup (related-work baselines + ensemble policies)", o)
	return res, nil
}

// NoiseRow is one point of the noise-tolerance experiment.
type NoiseRow struct {
	Noise    float64
	Accuracy map[string]float64
	Coverage map[string]float64
}

// noisePrefetchers is the noise-tolerance lineup, in print order; each
// label is also its registry name.
var noisePrefetchers = []string{"Pathfinder", "SPP", "VLDP", "BO"}

// NoiseTolerance tests §2.3's motivation for neural prefetchers — that
// they "make correct predictions even in the face of noisy inputs" caused
// by out-of-order reordering and interference. A pure delta-pattern
// workload is corrupted with increasing per-access noise; PATHFINDER's
// accuracy should degrade more gracefully than exact-match rule tables
// like SPP and VLDP. The (noise level × prefetcher) grid runs as one
// parallel batch; its jobs carry their accesses without a SourceKey, so
// each cell simulates its own no-prefetch baseline.
func NoiseTolerance(w io.Writer, opts ...Option) ([]NoiseRow, error) {
	o := newOptions(opts)
	levels := []float64{0, 0.05, 0.10, 0.20, 0.30}

	var jobs []runner.Job
	for _, noise := range levels {
		spec := workload.Spec{
			Name:  fmt.Sprintf("noisy-deltas-%.2f", noise),
			IDGap: 40,
			Components: []workload.Component{
				{Weight: 40, Kind: workload.KindDeltaPattern, Pattern: []int{1, 2, 3}, NoiseProb: noise},
				{Weight: 35, Kind: workload.KindDeltaPattern, Pattern: []int{2, 5, 4}, NoiseProb: noise},
				{Weight: 25, Kind: workload.KindDeltaPattern, Pattern: []int{7, 1, 3, 6}, NoiseProb: noise},
			},
		}
		accs, err := spec.GenerateCtx(o.ctx, o.loads, o.seed)
		if err != nil {
			return nil, err
		}
		for _, name := range noisePrefetchers {
			job, err := o.job(spec.Name, name, name)
			if err != nil {
				return nil, err
			}
			job.Accs = accs
			jobs = append(jobs, job)
		}
	}
	results, err := o.run(jobs)
	if err != nil {
		return nil, fmt.Errorf("experiments: noise tolerance: %w", err)
	}

	rows := make([]NoiseRow, len(levels))
	for i, noise := range levels {
		rows[i] = NoiseRow{Noise: noise, Accuracy: map[string]float64{}, Coverage: map[string]float64{}}
		for j := range noisePrefetchers {
			m := results[i*len(noisePrefetchers)+j].Metrics
			rows[i].Accuracy[m.Prefetcher] = m.Accuracy
			rows[i].Coverage[m.Prefetcher] = m.Coverage
		}
	}

	fmt.Fprintf(w, "\nNoise tolerance (§2.3): accuracy/coverage on a delta-pattern workload vs per-access noise, %d loads\n", o.loads)
	tw := newTable(w)
	fmt.Fprint(tw, "noise")
	for _, n := range noisePrefetchers {
		fmt.Fprintf(tw, "\t%s acc\t%s cov", n, n)
	}
	fmt.Fprintln(tw)
	for _, r := range rows {
		fmt.Fprintf(tw, "%.2f", r.Noise)
		for _, n := range noisePrefetchers {
			fmt.Fprintf(tw, "\t%.3f\t%.3f", r.Accuracy[n], r.Coverage[n])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	return rows, nil
}

// InterferenceRow is one prefetcher's solo-versus-shared comparison.
type InterferenceRow struct {
	Prefetcher     string
	SoloIPC        float64
	SharedIPC      float64
	SoloAccuracy   float64
	SharedAccuracy float64
}

// Interference tests the second §2.3 claim — that co-scheduled threads
// inject noise that perturbs rule-based prefetchers — by running each
// prefetcher's benchmark core alone and then next to a streaming co-runner
// that thrashes the shared LLC and memory controller. Both the IPC cost
// and the accuracy cost of sharing are reported. The solo and shared
// simulations need the multi-core frontend directly, so this experiment
// bypasses the evaluation engine but still fans the three prefetchers out
// across workers.
func Interference(w io.Writer, opts ...Option) ([]InterferenceRow, error) {
	o := newOptions(opts)
	victim, err := workload.GenerateCtx(o.ctx, "cc-5", o.loads, o.seed)
	if err != nil {
		return nil, err
	}
	// The co-runner: a pure streaming workload in its own address space.
	coSpec := workload.Spec{
		Name:  "streamer",
		IDGap: 12,
		Components: []workload.Component{
			{Weight: 70, Kind: workload.KindStride, Stride: 3},
			{Weight: 30, Kind: workload.KindRandom, Set: 32768},
		},
	}
	coRunner, err := coSpec.GenerateCtx(o.ctx, o.loads, o.seed+7)
	if err != nil {
		return nil, err
	}
	for i := range coRunner {
		coRunner[i].Addr += 1 << 40 // keep address spaces disjoint
	}
	cfg := o.sim
	cfg.Warmup = o.loads / 10

	names := []string{"BO", "SPP", "Pathfinder"}
	rows := make([]InterferenceRow, len(names))
	err = runner.ForEach(o.ctx, o.parallelism, len(names), func(ctx context.Context, i int) error {
		p, err := serve.NewPrefetcherByName(names[i], o.seed)
		if err != nil {
			return err
		}
		file, err := prefetch.GenerateFileCtx(ctx, p, victim, prefetch.Budget)
		if err != nil {
			return err
		}
		eng, release := sim.AcquireEngine(cfg)
		defer release()
		solo, err := eng.RunCtx(ctx, victim, file)
		if err != nil {
			return err
		}
		shared, err := eng.RunMultiStreamCtx(ctx,
			[]trace.Source{trace.NewSliceSource(victim), trace.NewSliceSource(coRunner)},
			[][]trace.Prefetch{file, nil})
		if err != nil {
			return err
		}
		rows[i] = InterferenceRow{
			Prefetcher:     names[i],
			SoloIPC:        solo.IPC,
			SharedIPC:      shared[0].IPC,
			SoloAccuracy:   solo.Accuracy(),
			SharedAccuracy: shared[0].Accuracy(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "\nInterference (§2.3): cc-5 alone vs next to a streaming co-runner on a shared LLC, %d loads\n", o.loads)
	tw := newTable(w)
	fmt.Fprintln(tw, "prefetcher\tsolo IPC\tshared IPC\tIPC loss\tsolo acc\tshared acc")
	for _, r := range rows {
		loss := 0.0
		if r.SoloIPC > 0 {
			loss = (1 - r.SharedIPC/r.SoloIPC) * 100
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.1f%%\t%.3f\t%.3f\n",
			r.Prefetcher, r.SoloIPC, r.SharedIPC, loss, r.SoloAccuracy, r.SharedAccuracy)
	}
	tw.Flush()
	return rows, nil
}

// Degree sweeps §3.4's multi-degree mechanisms: prefetch degree 1 vs 2 vs
// 4, with the extra predictions coming either from a second label slot per
// neuron (the paper's adopted approach) or from lowered inhibition letting
// several neurons fire (its alternative). The evaluation's budget of two
// prefetches per access (§4.5) is lifted to the degree under test via the
// per-job budget override.
func Degree(w io.Writer, opts ...Option) (SweepResult, error) {
	o := newOptions(opts)

	configs := []NamedConfig{}
	mk := func(label string, degree, labels int, multiFire bool) {
		cfg := core.DefaultConfig()
		cfg.Degree = degree
		cfg.LabelsPerNeuron = labels
		cfg.MultiFire = multiFire
		configs = append(configs, NamedConfig{Label: label, Config: cfg})
	}
	mk("deg1/1l", 1, 1, false)
	mk("deg2/1l", 2, 1, false)
	mk("deg2/2l", 2, 2, false)
	mk("deg2/multifire", 2, 1, true)
	mk("deg4/2l", 4, 2, false)

	res := SweepResult{Rows: make(map[string]map[string]Metrics)}
	for _, c := range configs {
		res.Configs = append(res.Configs, c.Label)
	}
	jobs := make([]runner.Job, 0, len(o.traces)*len(configs))
	for _, tr := range o.traces {
		for _, c := range configs {
			cfg := c.Config
			jobs = append(jobs, runner.Job{
				Trace: tr,
				Label: c.Label,
				New: func() (prefetch.Prefetcher, error) {
					return newPathfinder(cfg, o.seed)
				},
				// Lift the per-access budget to the degree under test.
				Budget: cfg.Degree,
			})
		}
	}
	results, err := o.run(jobs)
	if err != nil {
		return SweepResult{}, fmt.Errorf("experiments: degree sweep: %w", err)
	}
	res.collect(results)
	res.print(w, "Multi-degree mechanisms (§3.4)", o)
	return res, nil
}

// SNNSensitivity sweeps the two SNN hyper-parameters this reproduction
// found load-bearing (DESIGN.md findings 1–2): the STDP potentiation rate
// NuPost, which must be strong enough for one-shot pattern capture, and
// the rate-coding input gain, which compensates for the pixel matrices
// being far sparser than the MNIST images the Diehl & Cook model was tuned
// for. Reported on one delta-rich trace.
func SNNSensitivity(w io.Writer, opts ...Option) (SweepResult, error) {
	o := newOptions(opts)
	o.traces = []string{"cc-5"}

	res := SweepResult{Rows: make(map[string]map[string]Metrics)}

	mkJob := func(label string, mutate func(*snn.Config)) runner.Job {
		return runner.Job{
			Trace: "cc-5",
			Label: label,
			New: func() (prefetch.Prefetcher, error) {
				cfg := core.DefaultConfig()
				cfg.Seed = o.seed
				pf, err := core.New(cfg)
				if err != nil {
					return nil, err
				}
				scfg := pf.Network().Config()
				mutate(&scfg)
				net, err := snn.New(scfg)
				if err != nil {
					return nil, err
				}
				pf.ReplaceNetwork(net)
				return pf, nil
			},
		}
	}

	var jobs []runner.Job
	for _, nu := range []float64{0.005, 0.02, 0.05, 0.1} {
		nu := nu
		label := fmt.Sprintf("nuPost %.3f", nu)
		res.Configs = append(res.Configs, label)
		jobs = append(jobs, mkJob(label, func(c *snn.Config) { c.NuPost = nu }))
	}
	for _, g := range []float64{2, 4, 8, 16} {
		g := g
		label := fmt.Sprintf("gain %.0f", g)
		res.Configs = append(res.Configs, label)
		jobs = append(jobs, mkJob(label, func(c *snn.Config) { c.InputGain = g }))
	}
	results, err := o.run(jobs)
	if err != nil {
		return SweepResult{}, fmt.Errorf("experiments: SNN sensitivity: %w", err)
	}
	res.collect(results)
	res.print(w, "SNN hyper-parameter sensitivity (cc-5)", o)
	return res, nil
}

// InputEncodings compares the SNN input designs of §3.2's design space:
// the paper's delta history, a PC-aware variant, and a spatial-footprint
// variant. The paper chose deltas because they "tend to be more
// predictable and easier to encode than the addresses themselves"; this
// experiment checks that choice.
func InputEncodings(w io.Writer, opts ...Option) (SweepResult, error) {
	mk := func(label string, mode core.InputMode) NamedConfig {
		cfg := core.DefaultConfig()
		cfg.Inputs = mode
		return NamedConfig{Label: label, Config: cfg}
	}
	return runSweep(w, "Input encodings (§3.2 design space)", newOptions(opts), []NamedConfig{
		mk("delta-history", core.InputDeltaHistory),
		mk("pc+delta", core.InputPCDelta),
		mk("footprint", core.InputFootprint),
	})
}
