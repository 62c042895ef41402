// Package sim is the trace-driven timing simulator used to evaluate
// prefetchers. It stands in for the ML Prefetching Competition's ChampSim
// fork (§4.1 of the paper): a trace of loads plus a prefetch file are
// replayed against the Table 3 memory hierarchy, yielding IPC and the
// prefetch bookkeeping (issued / useful) behind the accuracy and coverage
// metrics of §4.5.
package sim

import "math/bits"

// Policy selects a cache replacement policy.
type Policy int

const (
	// PolicyLRU is true least-recently-used replacement.
	PolicyLRU Policy = iota
	// PolicySRRIP is static re-reference interval prediction (Jaleel et
	// al.): 2-bit re-reference counters, demand fills inserted "long",
	// prefetch fills inserted "distant" so inaccurate prefetches are the
	// first victims — a prefetch-aware insertion policy.
	PolicySRRIP
)

// CacheStats is every statistics counter a Cache carries, grouped in one
// struct so ResetStats can clear the whole block at once — a counter added
// later cannot silently survive the warmup reset.
type CacheStats struct {
	// Hits and Misses count demand lookups.
	Hits   uint64
	Misses uint64
	// Fills counts lines actually inserted (refreshes of already-resident
	// lines are excluded); PrefetchFills is the subset inserted by
	// prefetch rather than demand.
	Fills         uint64
	PrefetchFills uint64
	// Evictions counts valid lines displaced by fills.
	Evictions uint64
}

// Cache is a set-associative cache operating on block addresses, with a
// selectable replacement policy (LRU by default). Lines filled by prefetch
// carry a prefetch bit that is cleared (and reported) on their first demand
// hit, which is how useful prefetches are counted.
//
// Line state lives in parallel arrays rather than a slice of structs: the
// simulator's hottest loops are linear scans of one set's tags, and packing
// the tags contiguously lets those scans touch one cache line per ~8 ways
// instead of one per way.
//
// Recency is O(1) for both LRU promotion and victim selection — no argmin
// scan on the miss path. Associativity is capped at maxWays (every shipped
// level fits), so a whole set's recency order is packed into one uint64:
// sixteen 4-bit way indices, MRU in the lowest nibble, LRU in nibble
// fill-1, so a hit promotion is a single load, a handful of SWAR bit
// operations and a single store. Three facts make the packed word exactly
// equivalent to the recency stamps it replaced: stamps were unique (every
// operation draws a fresh tick), lines never leave a set except by
// replacement (so occupancy only grows and empty ways fill in ascending
// index order, tracked by a per-set fill count), and the stamp argmin
// therefore always picked either way `fill` (first empty) or the recency
// order's tail (oldest valid line). The stamps are maintained only by the
// pfdebug build, which checks the strict recency order against them —
// release builds never touch them.
type Cache struct {
	sets    int
	ways    int
	setMask uint64 // sets-1 when sets is a power of two, else 0
	policy  Policy
	tags    []uint64 // sets × ways, row-major
	lru     []uint64 // recency stamps; maintained only under pfdebug
	meta    []uint8  // lineValid | linePrefetched | rrpv<<lineRRPVShift
	rec     []uint64 // packed per-set recency order, 4 bits per way
	fill    []uint8  // valid ways per set
	tick    uint64

	// Miss memo: a missing Lookup records the block so the Fill that
	// follows it — the simulator always fills the block whose lookup just
	// missed — can skip re-proving the block absent. The memo is valid
	// only while missTick still equals tick: any intervening operation on
	// this cache advances tick and invalidates it.
	missBlock uint64
	missTick  uint64

	CacheStats
}

// maxWays is the widest associativity a Cache supports: one packed
// recency word holds sixteen 4-bit way indices.
const maxWays = 16

const (
	lineValid      = 1 << 0
	linePrefetched = 1 << 1
	lineRRPVShift  = 2
	lineRRPVMask   = 0x3 << lineRRPVShift
)

// srripMax is the "distant" re-reference value of the 2-bit SRRIP counters.
const srripMax = 3

// invalidTag occupies the tag slot of every invalid line, so the lookup
// and residency scans are pure tag comparisons with no validity check in
// the loop. Blocks are byte addresses divided by BlockBytes, so no real
// block can reach 2^64-1.
const invalidTag = ^uint64(0)

// NewCache returns an LRU cache with the given geometry. Both sets and ways
// must be positive, ways at most 16; sets need not be a power of two.
func NewCache(sets, ways int) *Cache {
	return NewCacheWithPolicy(sets, ways, PolicyLRU)
}

// NewCacheWithPolicy returns a cache with the given geometry and
// replacement policy.
func NewCacheWithPolicy(sets, ways int, policy Policy) *Cache {
	if sets <= 0 || ways <= 0 {
		panic("sim: cache sets and ways must be positive")
	}
	if ways > maxWays {
		panic("sim: cache ways must be at most 16")
	}
	n := sets * ways
	c := &Cache{
		sets: sets, ways: ways, policy: policy,
		tags:     make([]uint64, n),
		meta:     make([]uint8, n),
		rec:      make([]uint64, sets),
		fill:     make([]uint8, sets),
		missTick: ^uint64(0), // no miss recorded yet
	}
	if pfdebugEnabled {
		// Recency stamps back the pfdebug order checks only; release
		// builds neither write nor allocate them.
		c.lru = make([]uint64, n)
	}
	if sets&(sets-1) == 0 {
		c.setMask = uint64(sets - 1)
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// setIndex returns the index of block's set. Every shipped geometry has
// power-of-two sets, so the common path is a mask; the modulo fallback
// keeps arbitrary set counts working.
func (c *Cache) setIndex(block uint64) int {
	if c.setMask != 0 {
		return int(block & c.setMask)
	}
	return int(block % uint64(c.sets))
}

// setBase returns the first line index of block's set.
func (c *Cache) setBase(block uint64) int {
	return c.setIndex(block) * c.ways
}

// Lookup performs a demand access for block. It reports whether the access
// hit, and if so whether this was the first demand touch of a prefetched
// line. Hit lines are promoted to MRU.
func (c *Cache) Lookup(block uint64) (hit, prefetchedFirstTouch bool) {
	return c.LookupGated(block, true)
}

// LookupGated is Lookup with the statistics gated: when count is false the
// access behaves identically — LRU promotion, prefetch-bit clear — but the
// Hits/Misses counters stay untouched. The multi-core simulator uses this
// for the shared LLC, whose counters must only reflect cores inside their
// measurement window; since each core crosses its warmup boundary at a
// different time, a boundary reset (as used for the private caches) cannot
// express that.
func (c *Cache) LookupGated(block uint64, count bool) (hit, prefetchedFirstTouch bool) {
	c.tick++
	set := c.setIndex(block)
	base := set * c.ways
	// The hit scan is a pure tag comparison: invalid ways hold invalidTag,
	// which no real block can equal, so no per-way validity load is needed.
	// Ranging over a sub-slice lets the compiler drop the bounds checks.
	for w, tag := range c.tags[base : base+c.ways] {
		if tag == block {
			return c.hitAt(set, base, uint16(w), block, count)
		}
	}
	// Miss: memoize the block so the Fill that typically follows can skip
	// re-proving it absent. Victim selection itself is O(1) at fill time.
	c.missBlock, c.missTick = block, c.tick
	if count {
		c.Misses++
	}
	if pfdebugEnabled {
		c.debugCheckSet(block)
	}
	return false, false
}

// Per-nibble SWAR constants for the packed recency word: ones replicates a
// value into every nibble, highs masks each nibble's top bit (the borrow
// bit of the zero-nibble detect below).
const (
	recOnes  = 0x1111111111111111
	recHighs = 0x8888888888888888
)

// promoteRec moves way w's nibble to the MRU (lowest) position of the
// packed recency word r, shifting the nibbles that were more recent than w
// up by one and leaving the older ones in place. w must be present among
// the valid (lowest fill) nibbles; garbage nibbles above the valid region
// stay above it and are never consulted. The position of w is found
// branch-free: XOR against w replicated into every nibble zeroes exactly
// the matching nibbles, and the classic zero-nibble detect
// (x - 0x11…1) & ^x & 0x88…8 raises each zero nibble's top bit — borrow
// propagation can raise spurious bits only above the first zero nibble,
// and TrailingZeros finds the first, which is w's true (lowest) position.
func promoteRec(r uint64, w uint16) uint64 {
	x := r ^ uint64(w)*recOnes
	z := (x - recOnes) & ^x & recHighs
	p := uint(bits.TrailingZeros64(z)) &^ 3 // bit offset of w's nibble
	low := r & (1<<p - 1)
	high := r &^ (1<<(p+4) - 1) // p+4 = 64 shifts to 0, masking nothing out
	return high | low<<4 | uint64(w)
}

// hitAt applies a demand hit on way w of set — MRU promotion, prefetch-bit
// clear and report, counters.
func (c *Cache) hitAt(set, base int, w uint16, block uint64, count bool) (hit, prefetchedFirstTouch bool) {
	i := base + int(w)
	if pfdebugEnabled {
		c.lru[i] = c.tick
	}
	c.rec[set] = promoteRec(c.rec[set], w)
	pf := c.meta[i]&linePrefetched != 0
	c.meta[i] = lineValid // rrpv = 0, prefetch bit cleared
	if count {
		c.Hits++
	}
	if pfdebugEnabled {
		c.debugCheckSet(block)
	}
	return true, pf
}

// Contains reports whether block is resident, without touching LRU state or
// hit/miss counters.
func (c *Cache) Contains(block uint64) bool {
	base := c.setBase(block)
	for _, tag := range c.tags[base : base+c.ways] {
		if tag == block {
			return true
		}
	}
	return false
}

// Fill inserts block, evicting the LRU line of its set if needed. The
// prefetched flag marks lines brought in by a prefetch rather than a demand
// miss. Filling a block that is already resident refreshes its LRU position
// (and leaves its prefetch bit untouched for demand fills). It returns the
// evicted block and whether an eviction of a valid line occurred.
func (c *Cache) Fill(block uint64, prefetched bool) (evicted uint64, hadEviction bool) {
	// Fast path: this fill directly follows the lookup that missed this
	// block (no intervening operation advanced tick), so the block is known
	// absent and the residency scan can be skipped.
	if c.missBlock == block && c.missTick == c.tick {
		c.tick++
		return c.insert(block, prefetched)
	}
	c.tick++
	set := c.setIndex(block)
	base := set * c.ways
	for w, tag := range c.tags[base : base+c.ways] {
		if tag == block { // already resident: refresh, no insert
			i := base + w
			if pfdebugEnabled {
				c.lru[i] = c.tick
			}
			c.rec[set] = promoteRec(c.rec[set], uint16(w))
			m := uint8(lineValid) // rrpv = 0
			if prefetched || c.meta[i]&linePrefetched != 0 {
				m |= linePrefetched
			}
			c.meta[i] = m
			if pfdebugEnabled {
				c.debugCheckSet(block)
			}
			return 0, false
		}
	}
	return c.insert(block, prefetched)
}

// insert installs block — known absent from its set — into a victim way
// chosen in O(1) from the set's recency word: the next empty way while the
// set is still filling, the oldest nibble (or SRRIP's re-reference pick)
// once it is full. Shared tail of Fill's memoized and scanning paths; tick
// has already been advanced.
func (c *Cache) insert(block uint64, prefetched bool) (evicted uint64, hadEviction bool) {
	set := c.setIndex(block)
	base := set * c.ways
	var victim int
	if f := c.fill[set]; int(f) < c.ways {
		// Replacement never empties a way, so occupancy only grows and
		// empty ways are claimed in ascending index order: the next one is
		// way `fill`. Shifting it in at MRU pushes any garbage nibbles
		// further above the valid region; with a full 16-way set the
		// oldest nibble simply falls off the top.
		victim = base + int(f)
		c.rec[set] = c.rec[set]<<4 | uint64(f)
		c.fill[set] = f + 1
	} else {
		r := c.rec[set]
		var w uint16
		if c.policy != PolicyLRU {
			w = uint16(c.pickVictimSRRIP(base) - base)
			c.rec[set] = promoteRec(r, w)
		} else {
			// The LRU victim is the oldest valid nibble; promoting it is
			// the same shift-and-append as claiming an empty way.
			w = uint16(r >> (4 * uint(c.ways-1)) & 0xF)
			c.rec[set] = r<<4 | uint64(w)
		}
		victim = base + int(w)
	}
	evicted, hadEviction = c.tags[victim], c.meta[victim]&lineValid != 0
	c.Fills++
	if prefetched {
		c.PrefetchFills++
	}
	if hadEviction {
		c.Evictions++
	}
	rrpv := uint8(srripMax - 1)
	m := uint8(lineValid)
	if prefetched {
		rrpv = srripMax // prefetch-aware insertion: distant re-reference
		m |= linePrefetched
	}
	c.tags[victim] = block
	if pfdebugEnabled {
		c.lru[victim] = c.tick
	}
	c.meta[victim] = m | rrpv<<lineRRPVShift
	if pfdebugEnabled {
		c.debugCheckSet(block)
	}
	return evicted, hadEviction
}

// pickVictimSRRIP selects a replacement victim from a full set: evict the
// first line predicted "distant"; if none, age every line and retry
// (guaranteed to terminate within srripMax rounds).
func (c *Cache) pickVictimSRRIP(base int) int {
	for {
		for i := base; i < base+c.ways; i++ {
			if c.meta[i]&lineRRPVMask >= srripMax<<lineRRPVShift {
				return i
			}
		}
		for i := base; i < base+c.ways; i++ {
			c.meta[i] += 1 << lineRRPVShift
		}
	}
}

// Reset invalidates every line and clears the statistics counters. The
// backing arrays are retained, so a reset cache is reusable without
// reallocation and behaves identically to a newly constructed one.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	clear(c.lru)
	clear(c.meta)
	clear(c.rec)
	clear(c.fill)
	c.tick = 0
	c.missTick = ^uint64(0)
	c.ResetStats()
}

// ResetStats clears every statistics counter, preserving cache contents.
// The simulator uses this at the end of the warmup window; because it
// clears the whole CacheStats block, every current and future counter is
// covered (see TestResetStatsClearsEveryCounter).
func (c *Cache) ResetStats() { c.CacheStats = CacheStats{} }
