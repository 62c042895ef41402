package refmodel

import "pathfinder/internal/sim"

// Cache is the reference set-associative LRU cache: the same
// lookup/fill/stats surface as sim.Cache, implemented with an explicit
// per-set recency list instead of sim's packed recency words. Physical way
// slots are modelled directly because sim fills an empty set's ways in
// slot order.
type Cache struct {
	sets int
	ways int

	slots   [][]refLine // [set][way], physical slot order
	recency [][]int     // [set] -> way indices, most recently used first

	// CacheStats is sim's counter block, embedded by type so the
	// differential harness can compare the two engines' statistics as one
	// struct — a counter added to sim automatically becomes part of the
	// reference contract.
	sim.CacheStats
}

type refLine struct {
	tag        uint64
	valid      bool
	prefetched bool
}

// NewCache returns a reference LRU cache.
func NewCache(sets, ways int) *Cache {
	if sets <= 0 || ways <= 0 {
		panic("refmodel: cache sets and ways must be positive")
	}
	c := &Cache{sets: sets, ways: ways}
	c.slots = make([][]refLine, sets)
	c.recency = make([][]int, sets)
	for s := range c.slots {
		c.slots[s] = make([]refLine, ways)
		c.recency[s] = make([]int, 0, ways)
	}
	return c
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

func (c *Cache) setIndex(block uint64) int { return int(block % uint64(c.sets)) }

// touch moves way to the front (MRU position) of set s's recency list,
// inserting it if absent.
func (c *Cache) touch(s, way int) {
	rec := c.recency[s]
	for i, w := range rec {
		if w == way {
			copy(rec[1:i+1], rec[:i])
			rec[0] = way
			return
		}
	}
	rec = append(rec, 0)
	copy(rec[1:], rec)
	rec[0] = way
	c.recency[s] = rec
}

// Lookup performs a demand access; semantics match sim.Cache.Lookup.
func (c *Cache) Lookup(block uint64) (hit, prefetchedFirstTouch bool) {
	return c.LookupGated(block, true)
}

// LookupGated is Lookup with gated statistics; semantics match
// sim.Cache.LookupGated.
func (c *Cache) LookupGated(block uint64, count bool) (hit, prefetchedFirstTouch bool) {
	s := c.setIndex(block)
	for way := range c.slots[s] {
		l := &c.slots[s][way]
		if l.valid && l.tag == block {
			c.touch(s, way)
			pf := l.prefetched
			l.prefetched = false
			if count {
				c.Hits++
			}
			return true, pf
		}
	}
	if count {
		c.Misses++
	}
	return false, false
}

// Contains reports residency without touching recency or counters.
func (c *Cache) Contains(block uint64) bool {
	s := c.setIndex(block)
	for _, l := range c.slots[s] {
		if l.valid && l.tag == block {
			return true
		}
	}
	return false
}

// Fill inserts block; semantics match sim.Cache.Fill: a resident block is
// refreshed (prefetch bit only ever set, never cleared, by fills), an
// invalid slot is used first (lowest way), and otherwise the victim is the
// recency list's tail.
func (c *Cache) Fill(block uint64, prefetched bool) (evicted uint64, hadEviction bool) {
	s := c.setIndex(block)
	victim := -1
	for way := range c.slots[s] {
		l := &c.slots[s][way]
		if l.valid && l.tag == block {
			c.touch(s, way)
			if prefetched {
				l.prefetched = true
			}
			return 0, false
		}
		if victim < 0 && !l.valid {
			victim = way
		}
	}
	if victim < 0 {
		rec := c.recency[s]
		victim = rec[len(rec)-1]
	}
	evicted, hadEviction = c.slots[s][victim].tag, c.slots[s][victim].valid
	c.Fills++
	if prefetched {
		c.PrefetchFills++
	}
	if hadEviction {
		c.Evictions++
	}
	c.slots[s][victim] = refLine{tag: block, valid: true, prefetched: prefetched}
	c.touch(s, victim)
	return evicted, hadEviction
}

// Reset invalidates every line and clears the statistics counters.
func (c *Cache) Reset() {
	for s := range c.slots {
		for way := range c.slots[s] {
			c.slots[s][way] = refLine{}
		}
		c.recency[s] = c.recency[s][:0]
	}
	c.ResetStats()
}

// ResetStats clears every statistics counter, like sim.Cache.ResetStats.
func (c *Cache) ResetStats() { c.CacheStats = sim.CacheStats{} }
