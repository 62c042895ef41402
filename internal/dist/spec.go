package dist

import (
	"encoding/json"
	"fmt"
	"os"

	"pathfinder/internal/runner"
	"pathfinder/internal/serve"
)

// CellSpec is one serializable grid cell: a workload, a technique name
// from the registry in internal/serve (any name serve.JobFor accepts,
// online or offline), and the effective knobs. A coordinator and its
// workers each expand the same spec list into the same []runner.Job,
// which is what lets a grant carry only a grid index and a key.
type CellSpec struct {
	// Trace names the workload (see pathfinder.Workloads).
	Trace string `json:"trace"`
	// Prefetcher names the technique.
	Prefetcher string `json:"prefetcher"`
	// Loads / Seed / Budget override the runner defaults when non-zero.
	Loads  int   `json:"loads,omitempty"`
	Seed   int64 `json:"seed,omitempty"`
	Budget int   `json:"budget,omitempty"`
}

// Job builds the runner job for one spec. The registry rejects an unknown
// technique name here, so a sweep refuses a misspelled grid before any
// cell is granted rather than failing every grant at evaluation time.
func (s CellSpec) Job() (runner.Job, error) {
	return serve.JobFor(serve.EvalRequest{
		Trace:      s.Trace,
		Prefetcher: s.Prefetcher,
		Loads:      s.Loads,
		Seed:       s.Seed,
		Budget:     s.Budget,
	})
}

// Jobs expands a spec list into the grid, in order.
func Jobs(specs []CellSpec) ([]runner.Job, error) {
	jobs := make([]runner.Job, len(specs))
	for i, s := range specs {
		job, err := s.Job()
		if err != nil {
			return nil, fmt.Errorf("dist: cell %d: %w", i, err)
		}
		jobs[i] = job
	}
	return jobs, nil
}

// GridSpec is the on-disk sweep description read by cmd/pfsweep: a cross
// product of traces × prefetchers × seeds, plus explicit extra cells.
// Expansion order is deterministic (traces outermost, then prefetchers,
// then seeds, then Cells verbatim), so every process expanding the same
// file derives the same grid — and therefore the same cell keys.
type GridSpec struct {
	// Traces and Prefetchers span the cross product.
	Traces      []string `json:"traces,omitempty"`
	Prefetchers []string `json:"prefetchers,omitempty"`
	// Seeds lists the trace-generation seeds (default: just 0, meaning
	// the runner default).
	Seeds []int64 `json:"seeds,omitempty"`
	// Loads / Budget apply to every cross-product cell.
	Loads  int `json:"loads,omitempty"`
	Budget int `json:"budget,omitempty"`
	// Cells are appended after the cross product, verbatim.
	Cells []CellSpec `json:"cells,omitempty"`
}

// Expand materialises the spec list.
func (g GridSpec) Expand() []CellSpec {
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	var specs []CellSpec
	for _, tr := range g.Traces {
		for _, pf := range g.Prefetchers {
			for _, seed := range seeds {
				specs = append(specs, CellSpec{
					Trace: tr, Prefetcher: pf,
					Loads: g.Loads, Seed: seed, Budget: g.Budget,
				})
			}
		}
	}
	return append(specs, g.Cells...)
}

// LoadGrid reads and expands a GridSpec JSON file.
func LoadGrid(path string) ([]CellSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dist: grid: %w", err)
	}
	var g GridSpec
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("dist: grid %s: %w", path, err)
	}
	specs := g.Expand()
	if len(specs) == 0 {
		return nil, fmt.Errorf("dist: grid %s: no cells", path)
	}
	return specs, nil
}
