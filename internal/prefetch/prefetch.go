// Package prefetch defines the prefetcher interface shared by PATHFINDER
// and the baselines, and implements the paper's non-neural comparison
// points (§4.3): NextLine, Best-Offset, SPP, an idealized SISB, the
// reinforcement-learning prefetcher Pythia, and the fixed-priority ensemble
// of §3.4/§5.
package prefetch

import (
	"context"
	"io"

	"pathfinder/internal/trace"
)

// Prefetcher observes a load stream one access at a time and suggests
// blocks to prefetch. Implementations learn online; there is no separate
// training phase (offline baselines such as Delta-LSTM live in
// internal/lstm and produce prefetch files directly).
type Prefetcher interface {
	// Name identifies the prefetcher in results tables.
	Name() string
	// Advise observes one access and returns up to budget *byte*
	// addresses (block-aligned) to prefetch. It is called once per trace
	// access, in order.
	Advise(a trace.Access, budget int) []uint64
}

// Budget is the per-access prefetch budget of the evaluation: "all
// prefetchers submit at most 2 prefetches for each memory access" (§4.5).
const Budget = 2

// GenerateFileCtx drives a Prefetcher over a trace and collects its
// suggestions into a prefetch file for the simulator, enforcing the
// per-access budget; it is the first phase of the two-phase flow of §4.1.
// It polls ctx every few thousand accesses and returns ctx.Err() when
// cancelled. It is the materialized entry to GenerateFileStreamCtx — the
// slice's known length pre-sizes the output at the budget-implied
// capacity, and the streaming path does all the work, so the two cannot
// drift.
func GenerateFileCtx(ctx context.Context, p Prefetcher, accs []trace.Access, budget int) ([]trace.Prefetch, error) {
	return GenerateFileStreamCtx(ctx, p, trace.NewSliceSource(accs), budget)
}

// GenerateFileStreamCtx drives a Prefetcher over a trace.Source, one
// access at a time, collecting its suggestions into a prefetch file. Only
// the prefetch file is materialized — it is what the simulator replays —
// so generation over an arbitrarily long trace holds one Access at a time
// plus the file itself. Sources exposing Remaining() (uint64, bool) get
// an output pre-sized for their declared count, capped by trace.Presize
// so a lying count cannot force a huge allocation; the per-access advice
// slice is truncated in place rather than copied.
func GenerateFileStreamCtx(ctx context.Context, p Prefetcher, src trace.Source, budget int) ([]trace.Prefetch, error) {
	if budget <= 0 {
		budget = Budget
	}
	var out []trace.Prefetch
	if n, ok := trace.Presize(src); ok {
		out = make([]trace.Prefetch, 0, n*uint64(budget))
	}
	// Telemetry accumulators: per-access degrees land in a small local
	// bucket array (degree is budget-bounded) flushed once at the end.
	var truncations uint64
	var degCounts [16]uint64
	var consumed uint64
	var a trace.Access
	for i := 0; ; i++ {
		if i&2047 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if err := src.Next(&a); err != nil {
			if err == io.EOF {
				break
			}
			return nil, err
		}
		consumed++
		addrs := p.Advise(a, budget)
		if len(addrs) > budget {
			addrs = addrs[:budget]
			truncations++
		}
		d := len(addrs)
		if d >= len(degCounts) {
			d = len(degCounts) - 1
		}
		degCounts[d]++
		for _, addr := range addrs {
			out = append(out, trace.Prefetch{ID: a.ID, Addr: addr &^ (trace.BlockBytes - 1)})
		}
	}
	if m := prefetchTele.Load(); m != nil {
		m.generations.Inc()
		m.advises.Add(consumed)
		m.issued.Add(uint64(len(out)))
		m.truncated.Add(truncations)
		for d, n := range degCounts {
			m.degree.ObserveN(uint64(d), n)
		}
	}
	return out, nil
}

// NoPrefetch is the no-prefetching baseline.
type NoPrefetch struct{}

// Name implements Prefetcher.
func (NoPrefetch) Name() string { return "NoPF" }

// Advise implements Prefetcher; it never suggests anything.
func (NoPrefetch) Advise(trace.Access, int) []uint64 { return nil }

// NextLine prefetches the next sequential block(s) after every access — the
// simplest strided prefetcher (§2.1), used as ensemble filler in §5.
type NextLine struct {
	// Degree is how many sequential blocks to suggest (capped by the
	// per-access budget). Zero means "use the full budget".
	Degree int

	advBuf []uint64
}

// Name implements Prefetcher.
func (n *NextLine) Name() string { return "NextLine" }

// Advise implements Prefetcher. The returned slice is reused across calls
// and valid only until the next Advise.
func (n *NextLine) Advise(a trace.Access, budget int) []uint64 {
	deg := n.Degree
	if deg <= 0 || deg > budget {
		deg = budget
	}
	out := n.advBuf[:0]
	for i := 1; i <= deg; i++ {
		out = append(out, trace.BlockAddr(a.Block()+uint64(i)))
	}
	n.advBuf = out
	return out
}
