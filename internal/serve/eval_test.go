package serve

import (
	"strings"
	"testing"

	"pathfinder/internal/core"
)

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
			if pf, ok := q.(*core.Pathfinder); ok {
				if got, want := pf.Config().OneTick, tc.label == "Pathfinder-1tick"; got != want {
					t.Errorf("JobFor(%q) built PATHFINDER with OneTick %v, want %v", name, got, want)
				}
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
