package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesCatalogue pins BENCHMARK.json to the metrics and
// workloads the program knows.
func TestSpecMatchesCatalogue(t *testing.T) {
	spec := loadSpec(t)
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	for _, c := range []struct {
		section string
		spec    []specMetric
		names   []string
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.names) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", c.section, len(c.spec), len(c.names))
		}
		for i, m := range c.spec {
			if i < len(c.names) && m.Name != c.names[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %q, program %q", c.section, i, m.Name, c.names[i])
			}
			if units[m.Name] != m.Unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the program", c.section, m.Name, m.Unit, units[m.Name])
			}
		}
	}
}

// TestShortRuns runs every workload, untraced and traced, at tiny sizes
// and checks that each metric BENCHMARK.json names prints with its unit,
// in the report and in the JSON line, and that every check passes.
func TestShortRuns(t *testing.T) {
	spec := loadSpec(t)
	for _, wl := range workloads {
		for _, traced := range []string{"0", "1"} {
			w, traced := wl.name, traced
			t.Run(w+"/trace"+traced, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-workload", w, "-seed", "7", "-seconds", "1", "-trace", traced, "-spans-dir", t.TempDir()}
				if code := run(args, &stdout, &stderr, tinySizes); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				want := spec.EndToEnd
				if traced == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics in the result, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("result: %s = %+v, want unit %q", m.Name, got, m.Unit)
					}
					if traced == "0" && got.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", m.Name)
					}
					line := regexp.MustCompile(`(?m)^  metric ` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + `$`)
					if !line.MatchString(stdout.String()) {
						t.Errorf("report does not print %s with unit %s", m.Name, m.Unit)
					}
				}
			})
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "grid-snn", "-seconds", "0"},
		{"-workload", "grid-snn", "-trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr, tinySizes); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
