// Package benchfmt parses `go test -bench` text output and the
// BENCH_*.json perf records derived from it. It is the shared layer under
// cmd/benchjson (which records runs) and cmd/benchdiff (which compares a
// fresh run against the committed records), so the two tools can never
// disagree about what a benchmark line or a record means.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's aggregated result as stored in BENCH_*.json.
//
// Repeated runs of the same benchmark (-count=N) are aggregated: ns/op is
// reported as both the minimum (the least-noise estimate conventionally
// quoted for comparisons) and the mean; allocs/op and B/op are the maximum
// over the runs, because a run that happens to fit a garbage collection
// cycle into its loop counts the allocations it causes, and another run
// may not.
type Entry struct {
	Name        string  `json:"name"`
	Runs        int     `json:"runs"`
	NsPerOpMin  float64 `json:"ns_per_op_min"`
	NsPerOpMean float64 `json:"ns_per_op_mean"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Sample is one raw benchmark result line.
type Sample struct {
	NsPerOp   float64
	Allocs    int64
	Bytes     int64
	HasAllocs bool
}

// ParseLine extracts one benchmark result line, e.g.
//
//	BenchmarkPresent/rate/learn-8   85840   13581 ns/op   0 B/op   0 allocs/op
//
// Returns ok=false for non-benchmark lines (headers, PASS, metrics-only).
func ParseLine(line string) (name string, s Sample, ok bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return "", Sample{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", Sample{}, false
	}
	// Strip the -GOMAXPROCS suffix so runs on different machines compare.
	name = fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	found := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return "", Sample{}, false
			}
			s.NsPerOp = v
			found = true
		case "B/op":
			s.Bytes, _ = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			s.Allocs, _ = strconv.ParseInt(val, 10, 64)
			s.HasAllocs = true
		}
	}
	return name, s, found
}

// ParsePkg extracts the package path from a `pkg: <path>` header line that
// `go test` prints before each package's benchmarks (ok=false otherwise).
func ParsePkg(line string) (string, bool) {
	rest, found := strings.CutPrefix(line, "pkg:")
	if !found {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// Set holds a parsed benchmark run: aggregated entries grouped by package,
// packages in stream order, entries within a package sorted by name.
type Set struct {
	pkgs    []string
	entries map[string][]Entry
}

// Parse reads a `go test -bench` stream, aggregating repeated runs of each
// benchmark into one Entry per (package, name). When echo is non-nil every
// input line is copied to it, so the run stays visible while piped.
func Parse(r io.Reader, echo io.Writer) (*Set, error) {
	type key struct{ pkg, name string }
	byName := map[key][]Sample{}
	var order []key
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if echo != nil {
			fmt.Fprintln(echo, line)
		}
		if p, ok := ParsePkg(line); ok {
			pkg = p
			continue
		}
		name, s, ok := ParseLine(line)
		if !ok {
			continue
		}
		k := key{pkg, name}
		if _, seen := byName[k]; !seen {
			order = append(order, k)
		}
		byName[k] = append(byName[k], s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	set := &Set{entries: map[string][]Entry{}}
	for _, k := range order {
		runs := byName[k]
		e := Entry{Name: k.name, Runs: len(runs), NsPerOpMin: runs[0].NsPerOp}
		sum := 0.0
		for _, r := range runs {
			sum += r.NsPerOp
			if r.NsPerOp < e.NsPerOpMin {
				e.NsPerOpMin = r.NsPerOp
			}
			if r.HasAllocs {
				e.AllocsPerOp = max(e.AllocsPerOp, r.Allocs)
				e.BytesPerOp = max(e.BytesPerOp, r.Bytes)
			}
		}
		e.NsPerOpMean = sum / float64(len(runs))
		if _, seen := set.entries[k.pkg]; !seen {
			set.pkgs = append(set.pkgs, k.pkg)
		}
		set.entries[k.pkg] = append(set.entries[k.pkg], e)
	}
	for _, es := range set.entries {
		sort.SliceStable(es, func(i, j int) bool { return es[i].Name < es[j].Name })
	}
	return set, nil
}

// Packages lists the packages seen, in stream order.
func (s *Set) Packages() []string { return s.pkgs }

// Entries returns one package's aggregated entries, sorted by name.
func (s *Set) Entries(pkg string) []Entry { return s.entries[pkg] }

// Len is the total entry count across packages.
func (s *Set) Len() int {
	n := 0
	for _, es := range s.entries {
		n += len(es)
	}
	return n
}

// Marshal renders entries as a BENCH_*.json record (sorted by name, with
// a trailing newline).
func Marshal(entries []Entry) ([]byte, error) {
	sorted := append([]Entry(nil), entries...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	data, err := json.MarshalIndent(sorted, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ReadFile loads a BENCH_*.json record.
func ReadFile(path string) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return entries, nil
}
