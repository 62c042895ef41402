package flat

import (
	"math/rand"
	"sort"
	"testing"
)

// refLRU is the brute-force reference: every entry carries a stamp from a
// clock that ticks on each refresh, and the victim is the lowest stamp,
// found by a full scan with strict <.
type refLRU struct {
	vals, stamps map[uint64]uint64
	clock        uint64
}

func newRefLRU() *refLRU {
	return &refLRU{vals: map[uint64]uint64{}, stamps: map[uint64]uint64{}}
}

func (r *refLRU) touch(k uint64) {
	r.clock++
	r.stamps[k] = r.clock
}

func (r *refLRU) oldest() (uint64, bool) {
	var victim uint64
	oldest, found := ^uint64(0), false
	for k, s := range r.stamps {
		if s < oldest {
			oldest, victim, found = s, k, true
		}
	}
	return victim, found
}

// lruOp is one step of a differential run; key indexes a small key space
// whose keys share home slots, so deletes shift entries backward.
type lruOp struct {
	kind byte
	key  uint64
	cap  int
}

const (
	opGet = iota
	opPeek
	opInsert
	opDelete
	opOldest
	opEvictInsert // the bounded-table idiom: evict the oldest if full, insert
	numOps
)

// lruKey spreads a small index over keys whose Fibonacci-hashed home slots
// cluster, like TestTableVsMap's.
func lruKey(i uint64) uint64 { return i * 0x9E3779B9 }

// lruStats reports which structural paths a differential run reached.
type lruStats struct {
	shifts, grows, evictions int
}

// runLRU drives an LRU and the reference through ops, failing at the first
// divergence: presence, values, the victim of every eviction, and (every
// few steps) the whole recency order.
func runLRU(t *testing.T, ops []lruOp) lruStats {
	t.Helper()
	var l LRU[uint64] // zero value: storage grows from nothing
	ref := newRefLRU()
	var st lruStats
	slots := 0
	for n, op := range ops {
		k := op.key
		switch op.kind {
		case opGet, opPeek:
			var v *uint64
			if op.kind == opGet {
				v = l.Get(k)
			} else {
				v = l.Peek(k)
			}
			rv, ok := ref.vals[k]
			if (v != nil) != ok || v != nil && *v != rv {
				t.Fatalf("op %d: lookup %d = %v, reference (%d, %v)", n, k, v, rv, ok)
			}
			if ok && op.kind == opGet {
				ref.touch(k)
			}
		case opInsert:
			v, existed := l.Insert(k)
			if _, ok := ref.vals[k]; existed != ok {
				t.Fatalf("op %d: Insert(%d) existed=%v, reference %v", n, k, existed, ok)
			}
			*v = uint64(n)
			ref.vals[k] = uint64(n)
			ref.touch(k)
		case opDelete:
			st.shifts += pendingShift(&l.index, k)
			_, ok := ref.vals[k]
			if l.Delete(k) != ok {
				t.Fatalf("op %d: Delete(%d) disagrees with reference %v", n, k, ok)
			}
			delete(ref.vals, k)
			delete(ref.stamps, k)
		case opOldest:
			key, v := l.Oldest()
			rk, ok := ref.oldest()
			if (v != nil) != ok || ok && (key != rk || *v != ref.vals[rk]) {
				t.Fatalf("op %d: Oldest = (%d, %v), reference (%d, %v)", n, key, v, rk, ok)
			}
		case opEvictInsert:
			if _, ok := ref.vals[k]; ok {
				continue
			}
			if l.Len() >= op.cap {
				victim, v := l.Oldest()
				rk, ok := ref.oldest()
				if (v != nil) != ok || ok && victim != rk {
					t.Fatalf("op %d: evicted %d (present %v), reference %d (present %v)", n, victim, v != nil, rk, ok)
				}
				if ok {
					st.shifts += pendingShift(&l.index, victim)
					l.Delete(victim)
					delete(ref.vals, rk)
					delete(ref.stamps, rk)
					st.evictions++
				}
			}
			v, _ := l.Insert(k)
			*v = uint64(n)
			ref.vals[k] = uint64(n)
			ref.touch(k)
		}
		if l.Len() != len(ref.vals) {
			t.Fatalf("op %d: Len %d, reference %d", n, l.Len(), len(ref.vals))
		}
		if len(l.index.keys) != slots {
			slots = len(l.index.keys)
			st.grows++
		}
		if n%64 == 0 {
			checkOrder(t, n, &l, ref)
		}
	}
	checkOrder(t, len(ops), &l, ref)
	return st
}

// checkOrder compares Range's oldest-first walk with the reference's
// entries sorted by stamp.
func checkOrder(t *testing.T, n int, l *LRU[uint64], ref *refLRU) {
	t.Helper()
	want := make([]uint64, 0, len(ref.stamps))
	for k := range ref.stamps {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return ref.stamps[want[i]] < ref.stamps[want[j]] })
	var got []uint64
	l.Range(func(k uint64, v *uint64) bool {
		if *v != ref.vals[k] {
			t.Fatalf("op %d: Range value of %d = %d, reference %d", n, k, *v, ref.vals[k])
		}
		got = append(got, k)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("op %d: Range visited %d entries, reference holds %d", n, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("op %d: recency position %d holds %d, reference %d", n, i, got[i], want[i])
		}
	}
}

// pendingShift reports whether deleting key will move another entry back
// into its slot: the next slot holds an entry displaced from its home.
func pendingShift(tb *Table[int32], key uint64) int {
	i := tb.find(key)
	if i < 0 {
		return 0
	}
	j := (uint64(i) + 1) & tb.mask
	if tb.gens[j] == tb.gen && tb.home(tb.keys[j]) != j {
		return 1
	}
	return 0
}

// TestLRUVsReference drives the LRU and the brute-force reference through
// long random sequences of every operation, with the bound moving so the
// storage grows, shrinks back into eviction, and reuses released nodes.
func TestLRUVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ops := make([]lruOp, 100_000)
	for i := range ops {
		cap := 8
		if i/10_000%2 == 1 {
			cap = 300
		}
		kind := byte(rng.Intn(numOps))
		if rng.Intn(3) == 0 {
			kind = opEvictInsert
		}
		ops[i] = lruOp{kind: kind, key: lruKey(uint64(rng.Intn(512))), cap: cap}
	}
	st := runLRU(t, ops)
	if st.shifts == 0 || st.grows < 3 || st.evictions == 0 {
		t.Fatalf("sequence missed a path: %d backward shifts, %d index growths, %d evictions", st.shifts, st.grows, st.evictions)
	}
}

// FuzzLRU reads each pair of bytes as an operation and a key (the first
// byte sets the eviction bound) and checks the LRU against the reference.
func FuzzLRU(f *testing.F) {
	f.Add([]byte{4, 5, 1, 5, 2, 5, 3, 5, 4, 0, 1, 4, 0, 3, 2})
	f.Add([]byte{1, 2, 9, 2, 17, 2, 9, 1, 9, 3, 9, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cap := int(data[0] % 16)
		var ops []lruOp
		for i := 1; i+1 < len(data); i += 2 {
			ops = append(ops, lruOp{kind: data[i] % numOps, key: lruKey(uint64(data[i+1] % 64)), cap: cap})
		}
		runLRU(t, ops)
	})
}
