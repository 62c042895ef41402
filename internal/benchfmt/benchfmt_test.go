package benchfmt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	name, s, ok := ParseLine("BenchmarkPresent/rate/learn-8   85840   13581 ns/op   416 B/op   1 allocs/op")
	if !ok {
		t.Fatal("benchmark line not recognized")
	}
	if name != "BenchmarkPresent/rate/learn" {
		t.Errorf("name = %q", name)
	}
	if s.NsPerOp != 13581 || s.Bytes != 416 || s.Allocs != 1 || !s.HasAllocs {
		t.Errorf("sample = %+v", s)
	}

	if _, _, ok := ParseLine("pkg: pathfinder/internal/snn"); ok {
		t.Error("header line parsed as benchmark")
	}
	if _, _, ok := ParseLine("PASS"); ok {
		t.Error("PASS parsed as benchmark")
	}

	// Without -benchmem there are no alloc columns.
	name, s, ok = ParseLine("BenchmarkSimulate-4   12   95000000 ns/op")
	if !ok || name != "BenchmarkSimulate" || s.NsPerOp != 95000000 || s.HasAllocs {
		t.Errorf("plain line: name=%q s=%+v ok=%v", name, s, ok)
	}
}

func TestParsePkg(t *testing.T) {
	p, ok := ParsePkg("pkg: pathfinder/internal/sim")
	if !ok || p != "pathfinder/internal/sim" {
		t.Errorf("ParsePkg = %q, %v", p, ok)
	}
	if _, ok := ParsePkg("BenchmarkRunNoPrefetch-8   10   100 ns/op"); ok {
		t.Error("benchmark line parsed as pkg header")
	}
	if _, ok := ParsePkg("PASS"); ok {
		t.Error("PASS parsed as pkg header")
	}
}

const multiPkgRun = `goos: linux
pkg: pathfinder/internal/sim
BenchmarkRun-8   100   2000 ns/op   80 B/op   2 allocs/op
BenchmarkRun-8   110   1800 ns/op   80 B/op   2 allocs/op
BenchmarkZeta-8   50   100 ns/op   0 B/op   0 allocs/op
PASS
pkg: pathfinder/internal/runner
BenchmarkEval-8   10   50000 ns/op   400 B/op   9 allocs/op
PASS
`

func TestParseAggregatesByPackage(t *testing.T) {
	var echo strings.Builder
	set, err := Parse(strings.NewReader(multiPkgRun), &echo)
	if err != nil {
		t.Fatal(err)
	}
	if got := set.Packages(); len(got) != 2 || got[0] != "pathfinder/internal/sim" || got[1] != "pathfinder/internal/runner" {
		t.Fatalf("packages = %v", got)
	}
	if set.Len() != 3 {
		t.Fatalf("Len = %d, want 3", set.Len())
	}
	sim := set.Entries("pathfinder/internal/sim")
	if len(sim) != 2 || sim[0].Name != "BenchmarkRun" || sim[1].Name != "BenchmarkZeta" {
		t.Fatalf("sim entries = %+v (want sorted by name)", sim)
	}
	run := sim[0]
	if run.Runs != 2 || run.NsPerOpMin != 1800 || run.NsPerOpMean != 1900 || run.AllocsPerOp != 2 || run.BytesPerOp != 80 {
		t.Errorf("aggregated entry = %+v", run)
	}
	if !strings.Contains(echo.String(), "BenchmarkEval") {
		t.Error("echo writer did not receive the input lines")
	}
}

// TestParseKeepsMostAllocs pins the alloc aggregation: a count that moves
// with garbage collection cycles is recorded at its highest, so a record
// taken on a quiet run cannot fail every later run.
func TestParseKeepsMostAllocs(t *testing.T) {
	const run = `pkg: pathfinder/internal/trace
BenchmarkRead-2   100   2000 ns/op   4096 B/op   7 allocs/op
BenchmarkRead-2   100   2100 ns/op   4160 B/op   8 allocs/op
BenchmarkRead-2   100   1900 ns/op   4096 B/op   7 allocs/op
`
	set, err := Parse(strings.NewReader(run), nil)
	if err != nil {
		t.Fatal(err)
	}
	es := set.Entries("pathfinder/internal/trace")
	if len(es) != 1 || es[0].AllocsPerOp != 8 || es[0].BytesPerOp != 4160 {
		t.Fatalf("entries = %+v, want allocs/op 8 and B/op 4160 (the most over the runs)", es)
	}
}

func TestMarshalReadFileRoundTrip(t *testing.T) {
	entries := []Entry{
		{Name: "BenchmarkB", Runs: 1, NsPerOpMin: 2, NsPerOpMean: 2},
		{Name: "BenchmarkA", Runs: 3, NsPerOpMin: 1, NsPerOpMean: 1.5, AllocsPerOp: 4, BytesPerOp: 128},
	}
	data, err := Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "BenchmarkA" || got[1].Name != "BenchmarkB" {
		t.Fatalf("round trip = %+v (want sorted)", got)
	}
	if got[0] != entries[1] {
		t.Errorf("entry changed in round trip: %+v vs %+v", got[0], entries[1])
	}
}
