package main

import (
	"time"

	"pathfinder/internal/core"
	"pathfinder/internal/trace"
)

// adviseTimer wraps one PATHFINDER instance and times each Advise call,
// split by whether the call presented an SNN query (Stats().Queries
// advanced). It only delegates, so predictions are unchanged.
type adviseTimer struct {
	pf *core.Pathfinder
	// queryNs and otherNs are the durations of query and non-query calls.
	queryNs, otherNs []int64
	// sum is the total time of all calls since the last takeSum.
	sum time.Duration
	// events, when base is set, records every call's interval for the
	// serving spans, in nanoseconds since base.
	base   time.Time
	events []adviseRec
}

type adviseRec struct {
	id         uint64
	start, end int64
}

func (t *adviseTimer) Name() string { return t.pf.Name() }

func (t *adviseTimer) Advise(a trace.Access, budget int) []uint64 {
	q := t.pf.Stats().Queries
	t0 := time.Now()
	out := t.pf.Advise(a, budget)
	t1 := time.Now()
	d := t1.Sub(t0)
	t.sum += d
	if t.pf.Stats().Queries != q {
		t.queryNs = append(t.queryNs, int64(d))
	} else {
		t.otherNs = append(t.otherNs, int64(d))
	}
	if !t.base.IsZero() {
		t.events = append(t.events, adviseRec{id: a.ID, start: int64(t0.Sub(t.base)), end: int64(t1.Sub(t.base))})
	}
	return out
}

func (t *adviseTimer) takeSum() time.Duration {
	d := t.sum
	t.sum = 0
	return d
}

// adviseStats pools the timings of several timers.
type adviseStats struct {
	queryUs, otherNs []float64
	totalNs          int64
}

func (s *adviseStats) add(t *adviseTimer) {
	for _, d := range t.queryNs {
		s.queryUs = append(s.queryUs, float64(d)/1e3)
		s.totalNs += d
	}
	for _, d := range t.otherNs {
		s.otherNs = append(s.otherNs, float64(d))
		s.totalNs += d
	}
}

// report sets the core.* metrics and snn.ns_per_tick (query time per
// simulated SNN tick; the SNN runs inside core's query, so this is an
// upper bound on the SNN's own cost).
func (s *adviseStats) report(o *outcome, snnTicks uint64) {
	n := len(s.queryUs) + len(s.otherNs)
	o.set("core.advise_query_us_p50", quantile(s.queryUs, 0.5))
	o.set("core.advise_query_us_p99", quantile(s.queryUs, 0.99))
	o.set("core.advise_other_ns_p50", quantile(s.otherNs, 0.5))
	o.set("core.queries", float64(len(s.queryUs)))
	frac := 0.0
	if n > 0 {
		frac = float64(len(s.queryUs)) / float64(n)
	}
	o.set("core.query_frac", frac)
	perTick := 0.0
	if snnTicks > 0 {
		var q float64
		for _, us := range s.queryUs {
			q += us * 1e3
		}
		perTick = q / float64(snnTicks)
	}
	o.set("snn.ns_per_tick", perTick)
}
