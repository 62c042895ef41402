package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCacheHitAfterFill(t *testing.T) {
	c := NewCache(16, 4)
	c.Fill(42, false)
	hit, pf := c.Lookup(42)
	if !hit {
		t.Fatal("miss after fill")
	}
	if pf {
		t.Error("demand fill reported as prefetched")
	}
}

func TestCacheMissOnEmpty(t *testing.T) {
	c := NewCache(16, 4)
	if hit, _ := c.Lookup(1); hit {
		t.Fatal("hit on empty cache")
	}
	if c.Misses != 1 {
		t.Errorf("Misses = %d, want 1", c.Misses)
	}
}

func TestCachePrefetchFirstTouch(t *testing.T) {
	c := NewCache(16, 4)
	c.Fill(7, true)
	hit, pf := c.Lookup(7)
	if !hit || !pf {
		t.Fatalf("first touch: hit=%v pf=%v, want true,true", hit, pf)
	}
	// Second touch must not report prefetched again.
	hit, pf = c.Lookup(7)
	if !hit || pf {
		t.Fatalf("second touch: hit=%v pf=%v, want true,false", hit, pf)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(1, 2) // single set, 2 ways
	c.Fill(1, false)
	c.Fill(2, false)
	c.Lookup(1) // promote 1 to MRU; 2 is now LRU
	evicted, had := c.Fill(3, false)
	if !had || evicted != 2 {
		t.Fatalf("evicted %d (had=%v), want 2", evicted, had)
	}
	if !c.Contains(1) || !c.Contains(3) || c.Contains(2) {
		t.Error("cache contents wrong after eviction")
	}
}

func TestCacheFillExistingRefreshes(t *testing.T) {
	c := NewCache(1, 2)
	c.Fill(1, false)
	c.Fill(2, false)
	c.Fill(1, false) // refresh 1; 2 becomes LRU
	if evicted, had := c.Fill(3, false); !had || evicted != 2 {
		t.Fatalf("evicted %d, want 2", evicted)
	}
}

func TestCacheContainsNoSideEffects(t *testing.T) {
	c := NewCache(4, 2)
	c.Fill(8, false)
	before := c.Hits + c.Misses
	c.Contains(8)
	c.Contains(9)
	if c.Hits+c.Misses != before {
		t.Error("Contains changed hit/miss counters")
	}
}

func TestCacheSetIsolation(t *testing.T) {
	c := NewCache(4, 1)
	// Blocks 0..3 map to distinct sets and must coexist.
	for b := uint64(0); b < 4; b++ {
		c.Fill(b, false)
	}
	for b := uint64(0); b < 4; b++ {
		if !c.Contains(b) {
			t.Errorf("block %d evicted despite distinct sets", b)
		}
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache(4, 2)
	c.Fill(1, false)
	c.Lookup(1)
	c.Reset()
	if c.Contains(1) || c.Hits != 0 || c.Misses != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestCacheNeverExceedsCapacityProperty(t *testing.T) {
	// Property: after any fill sequence, each set holds at most `ways`
	// distinct resident blocks and every fill leaves the block resident.
	f := func(blocks []uint16) bool {
		c := NewCache(8, 2)
		for _, b := range blocks {
			c.Fill(uint64(b), false)
			if !c.Contains(uint64(b)) {
				return false
			}
		}
		resident := 0
		for b := uint64(0); b < 1<<16; b++ {
			if c.Contains(b) {
				resident++
			}
		}
		return resident <= 8*2
	}
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCachePanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCache(0, 4) did not panic")
		}
	}()
	NewCache(0, 4)
}

func TestCacheFillCounters(t *testing.T) {
	c := NewCache(1, 2)
	c.Fill(1, false)
	c.Fill(2, true)
	c.Fill(2, true)  // resident refresh: not a fill
	c.Fill(3, false) // evicts
	if c.Fills != 3 || c.PrefetchFills != 1 || c.Evictions != 1 {
		t.Errorf("fills/prefetchFills/evictions = %d/%d/%d, want 3/1/1",
			c.Fills, c.PrefetchFills, c.Evictions)
	}
}

func TestResetStatsClearsEveryCounter(t *testing.T) {
	// Reflect over the CacheStats block so a counter added later cannot
	// silently survive the warmup reset: every field must be a uint64 and
	// both Reset and ResetStats must zero all of them.
	c := NewCache(4, 2)
	set := func() {
		v := reflect.ValueOf(&c.CacheStats).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if f.Kind() != reflect.Uint64 {
				t.Fatalf("CacheStats field %s is %s, want uint64 (extend this test)",
					v.Type().Field(i).Name, f.Kind())
			}
			f.SetUint(uint64(i + 1))
		}
	}
	check := func(op string) {
		v := reflect.ValueOf(c.CacheStats)
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Uint() != 0 {
				t.Errorf("%s left CacheStats.%s = %d, want 0",
					op, v.Type().Field(i).Name, v.Field(i).Uint())
			}
		}
	}
	set()
	c.ResetStats()
	check("ResetStats")
	set()
	c.Reset()
	check("Reset")
}

func TestLookupGatedSkipsCountersOnly(t *testing.T) {
	a := NewCache(4, 2)
	b := NewCache(4, 2)
	blocks := []uint64{1, 5, 9, 1, 13, 5, 1}
	for _, blk := range blocks {
		a.Fill(blk, false)
		b.Fill(blk, false)
		h1, p1 := a.Lookup(blk)
		h2, p2 := b.LookupGated(blk, false)
		if h1 != h2 || p1 != p2 {
			t.Fatalf("block %d: gated lookup diverged: (%v,%v) vs (%v,%v)", blk, h1, p1, h2, p2)
		}
	}
	if a.Hits == 0 {
		t.Fatal("counted cache saw no hits")
	}
	if b.Hits != 0 || b.Misses != 0 {
		t.Errorf("gated lookups counted: hits/misses %d/%d", b.Hits, b.Misses)
	}
	// Replacement state must be identical: same evictions from here on.
	for blk := uint64(20); blk < 40; blk++ {
		e1, v1 := a.Fill(blk, false)
		e2, v2 := b.Fill(blk, false)
		if e1 != e2 || v1 != v2 {
			t.Fatalf("fill %d: evictions diverged (%d,%v) vs (%d,%v)", blk, e1, v1, e2, v2)
		}
	}
}
