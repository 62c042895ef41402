// Package flat holds the open-addressed hash table shared by the
// prefetchers (internal/prefetch) and the simulator's in-flight prefetch
// map (internal/sim). It imports nothing, so the simulator can use it
// without depending on the prefetchers that sit above it.
package flat

// Table is the flat, open-addressed hash table behind every bounded
// prefetcher metadata structure. The prefetchers used to keep their
// state in Go maps, which dominated the Advise hot path (hash interface
// calls, bucket chasing, one heap allocation per entry); a Table stores
// keys and values in power-of-two flat slices probed linearly from a
// Fibonacci-hashed home slot, so a lookup is a multiply, a shift and a
// short scan, and values live inline with no per-entry allocation.
//
// Semantics match a map[uint64]V of pointers closely enough that the
// conversions are behavior-preserving:
//
//   - Get returns a *V that is valid until the next Insert (which may grow
//     the table) or Delete (which compacts by backward shift). Every
//     converted prefetcher mutates the entry within the same Advise call.
//   - Delete uses backward-shift compaction, not tombstones, so probe
//     chains never contain dead slots and load factor alone bounds probe
//     length.
//   - Reset invalidates every entry in O(1) by bumping a generation
//     counter; the backing arrays are reused (this replaces the
//     delete-everything / re-make idiom).
//   - Range visits entries in slot order — deterministic for a given
//     insertion history, unlike map iteration. LRU eviction scans
//     (min-stamp with strict <), which the prefetchers already did over
//     their maps; unique stamps make the victim identical.
//
// The zero value is an empty, growable table; NewTable pre-sizes one.
type Table[V any] struct {
	keys []uint64
	vals []V
	gens []uint32 // slot live iff gens[i] == gen
	gen  uint32
	mask uint64
	n    int
}

// NewTable returns a table pre-sized so that capacity entries fit below
// the growth load factor.
func NewTable[V any](capacity int) *Table[V] {
	t := &Table[V]{}
	slots := 8
	for slots*3 < capacity*4 { // slots >= capacity * 4/3 keeps load <= 3/4
		slots <<= 1
	}
	t.init(slots)
	return t
}

func (t *Table[V]) init(slots int) {
	t.keys = make([]uint64, slots)
	t.vals = make([]V, slots)
	t.gens = make([]uint32, slots)
	t.gen = 1
	t.mask = uint64(slots - 1)
	t.n = 0
}

// Len reports the number of live entries.
func (t *Table[V]) Len() int { return t.n }

// Reset discards every entry in O(1), keeping the backing arrays.
func (t *Table[V]) Reset() {
	if t.keys == nil {
		return
	}
	t.gen++
	if t.gen == 0 { // generation wrap: scrub and restart
		clear(t.gens)
		t.gen = 1
	}
	t.n = 0
}

// home is the Fibonacci-hashed preferred slot of a key.
func (t *Table[V]) home(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> 32 & t.mask
}

// find returns the slot holding key, or -1.
func (t *Table[V]) find(key uint64) int {
	if t.n == 0 {
		return -1
	}
	for i := t.home(key); ; i = (i + 1) & t.mask {
		if t.gens[i] != t.gen {
			return -1
		}
		if t.keys[i] == key {
			return int(i)
		}
	}
}

// Get returns a pointer to key's value, or nil. The pointer is valid until
// the next Insert or Delete.
func (t *Table[V]) Get(key uint64) *V {
	i := t.find(key)
	if i < 0 {
		return nil
	}
	return &t.vals[i]
}

// Insert returns a pointer to key's value, creating a zero-valued entry if
// absent; existed reports which. The pointer is valid until the next
// Insert or Delete.
func (t *Table[V]) Insert(key uint64) (v *V, existed bool) {
	if t.keys == nil {
		t.init(8)
	}
	if (t.n+1)*4 > len(t.keys)*3 {
		t.grow()
	}
	i := t.home(key)
	for ; t.gens[i] == t.gen; i = (i + 1) & t.mask {
		if t.keys[i] == key {
			return &t.vals[i], true
		}
	}
	t.keys[i] = key
	var zero V
	t.vals[i] = zero
	t.gens[i] = t.gen
	t.n++
	return &t.vals[i], false
}

// Delete removes key, reporting whether it was present. Compaction is by
// backward shift, so no tombstones accumulate.
func (t *Table[V]) Delete(key uint64) bool {
	i := t.find(key)
	if i < 0 {
		return false
	}
	t.n--
	j := uint64(i)
	for {
		t.gens[j] = 0
		k := j
		for {
			k = (k + 1) & t.mask
			if t.gens[k] != t.gen {
				return true
			}
			home := t.home(t.keys[k])
			// The entry at k may fill the hole at j only if j lies within
			// its probe path [home, k].
			if (k-home)&t.mask >= (k-j)&t.mask {
				break
			}
		}
		t.keys[j] = t.keys[k]
		t.vals[j] = t.vals[k]
		t.gens[j] = t.gen
		j = k
	}
}

// Range calls fn for every live entry in slot order until fn returns
// false. fn may mutate the value through the pointer but must not Insert
// or Delete.
func (t *Table[V]) Range(fn func(key uint64, v *V) bool) {
	if t.n == 0 {
		return
	}
	for i := range t.keys {
		if t.gens[i] == t.gen && !fn(t.keys[i], &t.vals[i]) {
			return
		}
	}
}

// DeleteIf removes every entry for which fn returns true. It rebuilds the
// table in place (entries are re-sunk into their probe positions), so it
// costs one pass over the slots plus reinsertion of the survivors.
func (t *Table[V]) DeleteIf(fn func(key uint64, v *V) bool) {
	if t.n == 0 {
		return
	}
	for i := range t.keys {
		// Deleting re-tests slot i: backward shift may pull another entry
		// into the hole. Shifts only move entries toward lower probe
		// distance, so nothing not-yet-visited ever escapes the sweep.
		for t.gens[i] == t.gen && fn(t.keys[i], &t.vals[i]) {
			t.Delete(t.keys[i])
		}
	}
}

// grow doubles the slot count and rehashes the live entries.
func (t *Table[V]) grow() {
	oldKeys, oldVals, oldGens, oldGen := t.keys, t.vals, t.gens, t.gen
	t.init(len(oldKeys) * 2)
	n := 0
	for i := range oldKeys {
		if oldGens[i] != oldGen {
			continue
		}
		j := t.home(oldKeys[i])
		for t.gens[j] == t.gen {
			j = (j + 1) & t.mask
		}
		t.keys[j] = oldKeys[i]
		t.vals[j] = oldVals[i]
		t.gens[j] = t.gen
		n++
	}
	t.n = n
}
