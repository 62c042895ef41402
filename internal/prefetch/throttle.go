package prefetch

import (
	"pathfinder/internal/flat"
	"pathfinder/internal/trace"
)

// Throttle wraps any prefetcher with feedback-directed aggressiveness
// control after Srinath et al. (HPCA 2007). The §4.3 Best-Offset baseline
// ships with "prefetch throttling disabled by the provider"; this wrapper
// is the mechanism that was disabled, made composable: it tracks the
// wrapped prefetcher's recent accuracy over a sliding epoch and scales how
// much of the per-access budget the prefetcher may use — full budget while
// accurate, a single slot while mediocre, nothing while hopeless.
type Throttle struct {
	// Inner is the wrapped prefetcher (it observes every access even
	// while fully throttled, so it keeps learning).
	Inner Prefetcher

	pending  *flat.Table[uint64] // suggested block -> access count when suggested
	n        uint64
	hits     int
	issued   int
	level    int // 0 = full budget, 1 = one slot, 2 = silenced
	levelLog [3]uint64
}

// Throttle's feedback parameters.
const (
	// throttleEpoch is the evaluation window in accesses.
	throttleEpoch = 512
	// throttleHighWater and throttleLowWater are the accuracy thresholds
	// separating the full-budget, reduced-budget and silenced regimes.
	throttleHighWater = 0.40
	throttleLowWater  = 0.10
	// throttleWindow bounds how long an unconsumed suggestion stays
	// eligible to count as accurate.
	throttleWindow = 256
)

// NewThrottle wraps a prefetcher.
func NewThrottle(inner Prefetcher) *Throttle {
	return &Throttle{Inner: inner, pending: flat.NewTable[uint64](1024)}
}

// Name implements Prefetcher.
func (t *Throttle) Name() string { return t.Inner.Name() + "+FDP" }

// Level returns the current throttle level (0 full, 1 reduced, 2 silenced)
// and how many accesses have been spent at each level.
func (t *Throttle) Level() (int, [3]uint64) { return t.level, t.levelLog }

// Advise implements Prefetcher.
func (t *Throttle) Advise(a trace.Access, budget int) []uint64 {
	t.n++
	t.levelLog[t.level]++

	// Score previous suggestions against this demand.
	if at := t.pending.Get(a.Block()); at != nil && t.n-*at <= throttleWindow {
		t.hits++
		t.pending.Delete(a.Block())
	}

	// Re-evaluate the level each epoch.
	if t.n%throttleEpoch == 0 {
		if t.issued > 0 {
			// No evidence means no level change; silenced prefetchers
			// keep probing (below) so evidence keeps flowing.
			acc := float64(t.hits) / float64(t.issued)
			switch {
			case acc >= throttleHighWater:
				t.level = 0
			case acc >= throttleLowWater:
				t.level = 1
			default:
				t.level = 2
			}
		}
		t.hits, t.issued = 0, 0
		// Expire stale suggestions so the table stays bounded.
		t.pending.DeleteIf(func(_ uint64, at *uint64) bool {
			return t.n-*at > throttleWindow
		})
	}

	sugg := t.Inner.Advise(a, budget) // always observe: learning continues
	allowed := budget
	switch t.level {
	case 1:
		allowed = 1
	case 2:
		// Silenced, but probe occasionally so a prefetcher that becomes
		// accurate again can earn its budget back.
		allowed = 0
		if t.n%32 == 0 {
			allowed = 1
		}
	}
	if len(sugg) > allowed {
		sugg = sugg[:allowed]
	}
	for _, s := range sugg {
		at, _ := t.pending.Insert(s / trace.BlockBytes)
		*at = t.n
		t.issued++
	}
	return sugg
}
