// Command benchjson converts `go test -bench` output read on stdin into a
// compact JSON perf record. `make bench-micro` pipes the SNN
// micro-benchmarks through it into BENCH_snn.json so successive PRs leave
// a comparable perf trajectory (see docs/performance.md).
//
// Repeated runs of the same benchmark (-count=N) are aggregated: ns/op is
// reported as both the minimum (the least-noise estimate conventionally
// quoted for comparisons) and the mean; allocs/op and B/op are the maximum
// over the runs, since a garbage collection cycle inside one run's loop
// can add to its counts.
//
// With -by-pkg <dir>, a multi-package `go test` run is split on its `pkg:`
// headers and each package's benchmarks land in <dir>/BENCH_<name>.json
// (name = last path element) — how `make bench-micro` produces
// BENCH_sim.json and BENCH_runner.json from one invocation.
//
// Parsing and the record format live in internal/benchfmt, shared with
// cmd/benchdiff so recording and regression-checking can never disagree.
package main

import (
	"flag"
	"fmt"
	"os"
	"path"
	"path/filepath"

	"pathfinder/internal/benchfmt"
)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	byPkg := flag.String("by-pkg", "", "split a multi-package run on its pkg: headers, writing <dir>/BENCH_<pkgname>.json each (overrides -o)")
	flag.Parse()

	// Echo the raw output through so the run stays visible when piped.
	set, err := benchfmt.Parse(os.Stdin, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if set.Len() == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	if *byPkg != "" {
		for _, p := range set.Packages() {
			name := path.Base(p)
			if name == "." || name == "/" || name == "" {
				name = "unknown"
			}
			writeEntries(filepath.Join(*byPkg, "BENCH_"+name+".json"), set.Entries(p))
		}
		return
	}

	// Flat mode: one list across every package (the original behaviour).
	var all []benchfmt.Entry
	for _, p := range set.Packages() {
		all = append(all, set.Entries(p)...)
	}
	writeEntries(*out, all)
}

// writeEntries writes one JSON record (stdout when path is "").
func writeEntries(path string, entries []benchfmt.Entry) {
	data, err := benchfmt.Marshal(entries)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if path == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
