package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pathfinder/internal/core"
	"pathfinder/internal/prefetch"
	"pathfinder/internal/runner"
)

// usesPathfinder names the registry techniques built around a PATHFINDER.
var usesPathfinder = map[string]bool{
	"pathfinder": true, "pf": true, "pathfinder-1tick": true,
	"pf+nl": true, "pf+nl+sisb": true, "ensemble": true, "dynamic-ensemble": true,
}

// TestRegistryNames walks every name of the technique registry, in lower
// and upper case: each must resolve through both entry points to the
// documented prefetcher Name() and job label, offline generators must
// land in job.GenFile (and be refused online), and unknown names must
// fail in both.
func TestRegistryNames(t *testing.T) {
	for _, tc := range []struct {
		name   string
		pfName string // the online prefetcher's Name(); "" for offline techniques
		label  string // the job label; "" where Name() labels the results
	}{
		{"", "NoPF", ""},
		{"none", "NoPF", ""},
		{"nopf", "NoPF", ""},
		{"nextline", "NextLine", ""},
		{"nl", "NextLine", ""},
		{"bo", "BO", ""},
		{"bestoffset", "BO", ""},
		{"best-offset", "BO", ""},
		{"bo-throttled", "BO+FDP", ""},
		{"spp", "SPP", ""},
		{"sisb", "SISB", ""},
		{"isb", "ISB", ""},
		{"pythia", "Pythia", ""},
		{"stride", "Stride", ""},
		{"vldp", "VLDP", ""},
		{"sms", "SMS", ""},
		{"nextpage", "NextPage", ""},
		{"pathfinder", "Pathfinder", ""},
		{"pf", "Pathfinder", ""},
		{"pathfinder-1tick", "Pathfinder", "Pathfinder-1tick"},
		{"pf+nl", "PF+NL", ""},
		{"pf+nl+sisb", "PF+NL+SISB", ""},
		{"ensemble", "PF+NL+SISB", ""},
		{"dynamic-ensemble", "DynPF+SISB+NL", ""},
		{"deltalstm", "", "DeltaLSTM"},
		{"delta-lstm", "", "DeltaLSTM"},
		{"voyager", "", "Voyager"},
	} {
		for _, name := range []string{tc.name, strings.ToUpper(tc.name)} {
			job, err := JobFor(EvalRequest{Trace: "cc-5", Prefetcher: name, Seed: 3})
			if err != nil {
				t.Errorf("JobFor(%q): %v", name, err)
				continue
			}
			if job.Label != tc.label {
				t.Errorf("JobFor(%q).Label = %q, want %q", name, job.Label, tc.label)
			}
			p, err := NewPrefetcherByName(name, 3)
			if tc.pfName == "" {
				if job.GenFile == nil || job.New != nil {
					t.Errorf("JobFor(%q) is not an offline GenFile job", name)
				}
				if err == nil {
					t.Errorf("NewPrefetcherByName(%q) built an offline technique as an online prefetcher", name)
				}
				continue
			}
			if err != nil {
				t.Errorf("NewPrefetcherByName(%q): %v", name, err)
				continue
			}
			if got := p.Name(); got != tc.pfName {
				t.Errorf("NewPrefetcherByName(%q).Name() = %q, want %q", name, got, tc.pfName)
			}
			if job.New == nil || job.GenFile != nil {
				t.Errorf("JobFor(%q) is not an online New job", name)
				continue
			}
			q, err := job.New()
			if err != nil {
				t.Errorf("JobFor(%q).New(): %v", name, err)
				continue
			}
			if got := q.Name(); got != tc.pfName {
				t.Errorf("JobFor(%q).New().Name() = %q, want %q", name, got, tc.pfName)
			}
			// The registry's PATHFINDER is a shareable stand-in in jobs and
			// a bare member online (session spill type-asserts it).
			s := prefetch.SharedMember(q)
			if (s != nil) != usesPathfinder[strings.ToLower(name)] {
				t.Errorf("JobFor(%q) shared member = %v, want one: %v", name, s, usesPathfinder[strings.ToLower(name)])
			}
			if prefetch.SharedMember(p) != nil {
				t.Errorf("NewPrefetcherByName(%q) holds a shared stand-in", name)
			}
			if s == nil {
				continue
			}
			m, err := s.Build()
			if err != nil {
				t.Errorf("JobFor(%q): building the shared member: %v", name, err)
				continue
			}
			pf := m.(*core.Pathfinder)
			if got, want := pf.Config().OneTick, tc.label == "Pathfinder-1tick"; got != want {
				t.Errorf("JobFor(%q) built PATHFINDER with OneTick %v, want %v", name, got, want)
			}
			if want := fmt.Sprintf("%#v", pf.Config()); s.Key() != want {
				t.Errorf("JobFor(%q) shares under key %q, want the full configuration %q", name, s.Key(), want)
			}
		}
	}
	for _, name := range []string{"no-such", "pf+sisb", "voyager2"} {
		if _, err := NewPrefetcherByName(name, 1); err == nil {
			t.Errorf("NewPrefetcherByName accepted unknown name %q", name)
		}
		if _, err := JobFor(EvalRequest{Trace: "cc-5", Prefetcher: name}); err == nil {
			t.Errorf("JobFor accepted unknown name %q", name)
		}
	}
}

// sameCell compares everything deterministic about two results.
func sameCell(a, b runner.Result) bool {
	return a.Metrics == b.Metrics && a.BaselineIPC == b.BaselineIPC && a.Cycles == b.Cycles
}

// TestJobForSharesPathfinder runs the registry's PATHFINDER lineup over
// two traces on one runner, at parallelism 1 and 4, where each trace's
// PATHFINDER is recorded once per configuration and replayed to the other
// cells. Every cell must equal the same job evaluated alone on a fresh
// runner, and the job built around a live PATHFINDER instead.
func TestJobForSharesPathfinder(t *testing.T) {
	loads := 2000
	if testing.Short() {
		loads = 600
	}
	names := []string{"pathfinder", "pathfinder-1tick", "pf+nl", "pf+nl+sisb", "dynamic-ensemble"}
	var grid []runner.Job
	var alone, live []runner.Result
	ctx := context.Background()
	for _, tr := range []string{"cc-5", "605-mcf-s1"} {
		for _, name := range names {
			job, err := JobFor(EvalRequest{Trace: tr, Prefetcher: name, Loads: loads, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			grid = append(grid, job)
			res, err := runner.New(runner.Config{}).Eval(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			alone = append(alone, res)
			job.New = func() (prefetch.Prefetcher, error) { return NewPrefetcherByName(name, 3) }
			if res, err = runner.New(runner.Config{}).Eval(ctx, job); err != nil {
				t.Fatal(err)
			}
			live = append(live, res)
		}
	}
	for _, par := range []int{1, 4} {
		results, err := runner.New(runner.Config{Parallelism: par}).Run(ctx, grid)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		for i, got := range results {
			if !sameCell(got, alone[i]) || !sameCell(got, live[i]) {
				t.Errorf("parallelism %d: %s/%s: grid %+v, alone %+v, live %+v",
					par, got.Trace, got.Prefetcher, got.Metrics, alone[i].Metrics, live[i].Metrics)
			}
		}
	}
}

// TestCallerBuiltPathfinderAdvisedLive runs PATHFINDERs a caller builds in
// its own Job.New beside registry cells of the same configuration and
// trace: the handles the caller keeps have each seen every access, and
// their cells equal the registry's.
func TestCallerBuiltPathfinderAdvisedLive(t *testing.T) {
	const loads = 1500
	var mu sync.Mutex
	var held []*core.Pathfinder
	own := func(label string, around func(pf prefetch.Prefetcher) prefetch.Prefetcher) runner.Job {
		return runner.Job{Trace: "cc-5", Loads: loads, Seed: 3, Label: label, New: func() (prefetch.Prefetcher, error) {
			cfg := core.DefaultConfig()
			cfg.Seed = 3
			pf, err := core.New(cfg)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			held = append(held, pf)
			mu.Unlock()
			return around(pf), nil
		}}
	}
	var jobs []runner.Job
	for _, name := range []string{"pathfinder", "pf+nl"} {
		job, err := JobFor(EvalRequest{Trace: "cc-5", Prefetcher: name, Loads: loads, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	jobs = append(jobs,
		own("Pathfinder", func(pf prefetch.Prefetcher) prefetch.Prefetcher { return pf }),
		own("PF+NL", func(pf prefetch.Prefetcher) prefetch.Prefetcher {
			return prefetch.NewEnsemble(pf, &prefetch.NextLine{})
		}))
	res, err := runner.New(runner.Config{Parallelism: 2}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(held) != 2 {
		t.Fatalf("%d caller-built PATHFINDERs, want 2", len(held))
	}
	for i, pf := range held {
		if got := pf.Stats().Accesses; got != loads {
			t.Errorf("caller-built PATHFINDER %d saw %d accesses, want %d", i, got, loads)
		}
	}
	for i := 0; i < 2; i++ {
		if !sameCell(res[i], res[i+2]) {
			t.Errorf("registry cell %+v, caller-built %+v", res[i].Metrics, res[i+2].Metrics)
		}
	}
}
