// Package profiling wires runtime/pprof and telemetry into the
// command-line tools: the -cpuprofile/-memprofile flags of cmd/experiments
// and cmd/pfsim funnel through Start, and their -metrics, -metrics-addr and
// -metrics-jsonl flags through SetupTelemetry. docs/performance.md shows
// how to analyze the profiles with `go tool pprof`.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling to cpuPath and arranges for a heap (allocs)
// profile to be written to memPath when the returned stop function runs.
// Either path may be empty to disable that profile. stop is idempotent; it
// must run before the process exits or the CPU profile is truncated and
// the heap profile never written.
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: %w", err)
		}
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "profiling: %v\n", err)
				return
			}
			runtime.GC() // settle the live heap before snapshotting
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "profiling: %v\n", err)
			}
			f.Close()
		}
	}, nil
}
