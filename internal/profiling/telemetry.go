package profiling

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"pathfinder"
)

// SetupTelemetry wires the -metrics family of flags: it enables telemetry
// across the stack, optionally serves the live endpoints on addr and
// streams JSONL samples to jsonl, and returns a cleanup that stops the
// sinks and (with print) prints the final snapshot on stderr. tool
// prefixes every stderr line.
func SetupTelemetry(tool string, print bool, addr, jsonl string) (func(), error) {
	if !print && addr == "" && jsonl == "" {
		return func() {}, nil
	}
	pathfinder.EnableTelemetry()
	cleanup := []func(){}
	if addr != "" {
		bound, shutdown, err := pathfinder.ServeTelemetry(addr)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: serving telemetry on http://%s/metrics (expvar at /debug/vars, pprof at /debug/pprof)\n", tool, bound)
		cleanup = append(cleanup, shutdown)
	}
	if jsonl != "" {
		f, err := os.Create(jsonl)
		if err != nil {
			return nil, err
		}
		s := pathfinder.StartTelemetrySampler(f, time.Second)
		cleanup = append(cleanup, func() {
			s.Stop()
			f.Close()
		})
	}
	return func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
		if print {
			if snap := pathfinder.TelemetrySnapshotNow(); snap != nil {
				data, err := json.MarshalIndent(snap, "", "  ")
				if err == nil {
					fmt.Fprintf(os.Stderr, "%s: telemetry:\n%s\n", tool, data)
				}
			}
		}
	}, nil
}
