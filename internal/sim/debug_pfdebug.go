//go:build pfdebug

package sim

import "fmt"

// pfdebug build: the simulator self-checks its structural invariants after
// cache and DRAM operations, panicking with a description on the first
// violation. See docs/testing.md.
const pfdebugEnabled = true

// debugCheckSet verifies the touched set's replacement-state invariants:
// at most one valid line holds any given tag, and every recency stamp is
// distinct and no newer than the cache's clock (the LRU stack property —
// stamps induce a strict total recency order).
func (c *Cache) debugCheckSet(block uint64) {
	base := c.setBase(block)
	matches := 0
	for i := base; i < base+c.ways; i++ {
		if c.meta[i]&lineValid == 0 {
			continue
		}
		if c.tags[i] == block {
			matches++
		}
		if c.lru[i] > c.tick {
			panic(fmt.Sprintf("sim pfdebug: line lru stamp %d ahead of cache clock %d", c.lru[i], c.tick))
		}
		for k := i + 1; k < base+c.ways; k++ {
			if c.meta[k]&lineValid != 0 && c.lru[k] == c.lru[i] {
				panic(fmt.Sprintf("sim pfdebug: duplicate lru stamp %d in set (ways %d and %d)", c.lru[i], i-base, k-base))
			}
		}
	}
	if matches > 1 {
		panic(fmt.Sprintf("sim pfdebug: block %d resident in %d ways of one set", block, matches))
	}

	// The packed recency order must agree with the stamps: nibble s of the
	// set's recency word is the s-th most recently used way, so walking
	// nibbles 0..fill-1 visits exactly fill distinct valid ways, each
	// strictly older than the one before. Garbage above nibble fill-1 is
	// never consulted and stays unchecked.
	set := c.setIndex(block)
	fill := int(c.fill[set])
	valid := 0
	for i := base; i < base+c.ways; i++ {
		if c.meta[i]&lineValid != 0 {
			valid++
		}
	}
	if fill != valid {
		panic(fmt.Sprintf("sim pfdebug: set fill count %d but %d valid ways", fill, valid))
	}
	r := c.rec[set]
	var last uint64
	var seen uint32
	for s := 0; s < fill; s++ {
		w := uint16(r >> (4 * uint(s)) & 0xF)
		if int(w) >= c.ways {
			panic(fmt.Sprintf("sim pfdebug: packed recency nibble %d names way %d of %d", s, w, c.ways))
		}
		if seen&(1<<w) != 0 {
			panic(fmt.Sprintf("sim pfdebug: packed recency repeats way %d", w))
		}
		seen |= 1 << w
		i := base + int(w)
		if c.meta[i]&lineValid == 0 {
			panic(fmt.Sprintf("sim pfdebug: packed recency visits invalid way %d", w))
		}
		if s > 0 && c.lru[i] >= last {
			panic(fmt.Sprintf("sim pfdebug: packed recency out of order at way %d (stamp %d after %d)", w, c.lru[i], last))
		}
		last = c.lru[i]
	}
}

// debugCheckAccess verifies one DRAM access's timing legality: the request
// starts no earlier than it was issued, completes after it starts, the bank
// only moves forward in time and holds the row it just served, and the
// read-queue occupancy respects its capacity.
func (d *DRAM) debugCheckAccess(now, start, done, prevReadyAt uint64, bank *dramBank, row uint64) {
	if start < now {
		panic(fmt.Sprintf("sim pfdebug: DRAM access started at %d before issue at %d", start, now))
	}
	if done <= start {
		panic(fmt.Sprintf("sim pfdebug: DRAM access done at %d not after start %d", done, start))
	}
	if bank.readyAt < prevReadyAt {
		panic(fmt.Sprintf("sim pfdebug: bank readyAt moved backwards %d -> %d", prevReadyAt, bank.readyAt))
	}
	if bank.readyAt < start {
		panic(fmt.Sprintf("sim pfdebug: bank readyAt %d before access start %d", bank.readyAt, start))
	}
	if !bank.hasRow || bank.openRow != row {
		panic(fmt.Sprintf("sim pfdebug: bank does not hold row %d it just served (hasRow %v openRow %d)", row, bank.hasRow, bank.openRow))
	}
	if len(d.outstanding) > d.cfg.ReadQueue {
		panic(fmt.Sprintf("sim pfdebug: read queue holds %d > capacity %d", len(d.outstanding), d.cfg.ReadQueue))
	}
	for i := range d.outstanding {
		for _, k := range [2]int{2*i + 1, 2*i + 2} {
			if k < len(d.outstanding) && d.outstanding[k] < d.outstanding[i] {
				panic(fmt.Sprintf("sim pfdebug: completion heap property violated at %d/%d", i, k))
			}
		}
	}
}

// debugCheck verifies the shared-memory prefetch bookkeeping: every
// in-flight map entry is backed by a heap fill with the same block and
// ready cycle (the heap may additionally hold stale, superseded fills), and
// the fill heap is a valid min-heap under its (ready, seq) order.
func (s *sharedMemory) debugCheck() {
	type key struct {
		block uint64
		ready uint64
	}
	have := make(map[key]bool, len(s.fills))
	for _, f := range s.fills {
		have[key{f.block, f.ready}] = true
	}
	s.inflight.Range(func(block uint64, ready *uint64) bool {
		if !have[key{block, *ready}] {
			panic(fmt.Sprintf("sim pfdebug: inflight block %d (ready %d) has no matching fill-heap entry", block, *ready))
		}
		return true
	})
	if s.inflight.Len() > len(s.fills) {
		panic(fmt.Sprintf("sim pfdebug: %d inflight entries exceed %d heap fills", s.inflight.Len(), len(s.fills)))
	}
	for i := range s.fills {
		for _, k := range [2]int{2*i + 1, 2*i + 2} {
			if k < len(s.fills) && s.fills[k].before(s.fills[i]) {
				panic(fmt.Sprintf("sim pfdebug: fill heap property violated at %d/%d", i, k))
			}
		}
	}
}
