package flat

import (
	"math/rand"
	"testing"
)

func TestTableBasic(t *testing.T) {
	tb := NewTable[int](4)
	if tb.Len() != 0 {
		t.Fatalf("fresh table Len = %d", tb.Len())
	}
	v, existed := tb.Insert(42)
	if existed || v == nil || *v != 0 {
		t.Fatalf("first Insert: existed=%v v=%v", existed, v)
	}
	*v = 7
	if got := tb.Get(42); got == nil || *got != 7 {
		t.Fatalf("Get(42) = %v, want 7", got)
	}
	if got := tb.Get(43); got != nil {
		t.Fatalf("Get(43) = %v, want nil", got)
	}
	v2, existed := tb.Insert(42)
	if !existed || *v2 != 7 {
		t.Fatalf("re-Insert: existed=%v v=%d", existed, *v2)
	}
	if !tb.Delete(42) || tb.Delete(42) {
		t.Fatal("Delete semantics wrong")
	}
	if tb.Len() != 0 {
		t.Fatalf("Len after delete = %d", tb.Len())
	}
}

func TestTableZeroValue(t *testing.T) {
	var tb Table[uint64]
	if tb.Get(1) != nil || tb.Delete(1) || tb.Len() != 0 {
		t.Fatal("zero-value table not empty")
	}
	tb.Reset() // must not panic
	for i := uint64(0); i < 100; i++ {
		v, _ := tb.Insert(i)
		*v = i * 10
	}
	if tb.Len() != 100 {
		t.Fatalf("Len = %d after 100 inserts", tb.Len())
	}
	for i := uint64(0); i < 100; i++ {
		if v := tb.Get(i); v == nil || *v != i*10 {
			t.Fatalf("Get(%d) = %v", i, v)
		}
	}
}

func TestTableZeroKey(t *testing.T) {
	tb := NewTable[string](8)
	v, _ := tb.Insert(0)
	*v = "zero"
	if got := tb.Get(0); got == nil || *got != "zero" {
		t.Fatalf("key 0 not stored: %v", got)
	}
	if !tb.Delete(0) {
		t.Fatal("key 0 not deleted")
	}
}

func TestTableReset(t *testing.T) {
	tb := NewTable[int](16)
	for i := uint64(0); i < 16; i++ {
		tb.Insert(i)
	}
	tb.Reset()
	if tb.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tb.Len())
	}
	for i := uint64(0); i < 16; i++ {
		if tb.Get(i) != nil {
			t.Fatalf("key %d survived Reset", i)
		}
	}
	// The table is immediately reusable.
	v, existed := tb.Insert(3)
	if existed {
		t.Fatal("entry resurrected after Reset")
	}
	*v = 9
	if got := tb.Get(3); got == nil || *got != 9 {
		t.Fatal("insert after Reset failed")
	}
}

func TestTableRangeDeterministic(t *testing.T) {
	build := func() *Table[int] {
		tb := NewTable[int](64)
		for i := uint64(0); i < 64; i++ {
			v, _ := tb.Insert(i * 2654435761)
			*v = int(i)
		}
		return tb
	}
	collect := func(tb *Table[int]) []uint64 {
		var keys []uint64
		tb.Range(func(k uint64, _ *int) bool { keys = append(keys, k); return true })
		return keys
	}
	a, b := collect(build()), collect(build())
	if len(a) != 64 || len(b) != 64 {
		t.Fatalf("Range visited %d/%d entries, want 64", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Range order differs at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTableDeleteIf(t *testing.T) {
	tb := NewTable[uint64](128)
	for i := uint64(0); i < 128; i++ {
		v, _ := tb.Insert(i)
		*v = i
	}
	tb.DeleteIf(func(k uint64, _ *uint64) bool { return k%3 == 0 })
	want := 0
	for i := uint64(0); i < 128; i++ {
		if i%3 == 0 {
			if tb.Get(i) != nil {
				t.Fatalf("key %d not deleted", i)
			}
		} else {
			want++
			if v := tb.Get(i); v == nil || *v != i {
				t.Fatalf("survivor %d lost: %v", i, v)
			}
		}
	}
	if tb.Len() != want {
		t.Fatalf("Len = %d, want %d", tb.Len(), want)
	}
}

// TestTableVsMap drives the table and a reference map through a long
// random schedule of inserts, deletes, resets and lookups, checking
// equivalence throughout.
func TestTableVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tb := NewTable[uint64](4) // small, to force repeated growth
	ref := map[uint64]uint64{}
	const keySpace = 512
	for op := 0; op < 200_000; op++ {
		k := uint64(rng.Intn(keySpace)) * 0x9E3779B9 // clustered hashes
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			v, existed := tb.Insert(k)
			_, refExisted := ref[k]
			if existed != refExisted {
				t.Fatalf("op %d: Insert(%d) existed=%v, map says %v", op, k, existed, refExisted)
			}
			*v = uint64(op)
			ref[k] = uint64(op)
		case 4, 5:
			_, refHad := ref[k]
			if tb.Delete(k) != refHad {
				t.Fatalf("op %d: Delete(%d) mismatch", op, k)
			}
			delete(ref, k)
		case 6:
			if op%997 == 0 {
				tb.Reset()
				ref = map[uint64]uint64{}
			}
		default:
			v := tb.Get(k)
			refV, refOk := ref[k]
			if (v != nil) != refOk {
				t.Fatalf("op %d: Get(%d) presence mismatch (table %v, map %v)", op, k, v != nil, refOk)
			}
			if v != nil && *v != refV {
				t.Fatalf("op %d: Get(%d) = %d, map has %d", op, k, *v, refV)
			}
		}
		if tb.Len() != len(ref) {
			t.Fatalf("op %d: Len %d != map len %d", op, tb.Len(), len(ref))
		}
	}
	// Full sweep at the end.
	seen := 0
	tb.Range(func(k uint64, v *uint64) bool {
		seen++
		if refV, ok := ref[k]; !ok || refV != *v {
			t.Fatalf("Range found (%d,%d), map has (%d,%v)", k, *v, refV, ok)
		}
		return true
	})
	if seen != len(ref) {
		t.Fatalf("Range visited %d entries, map holds %d", seen, len(ref))
	}
}

func TestTableDeleteBackwardShiftWrap(t *testing.T) {
	// Force a probe chain across the slot-array wrap boundary, then delete
	// through it: every survivor must stay reachable.
	tb := NewTable[int](8) // 16 slots
	// Insert keys that all hash near the top of the slot array by brute
	// force: find keys whose home slot is >= 13.
	var keys []uint64
	for k := uint64(1); len(keys) < 6; k++ {
		if (k*0x9E3779B97F4A7C15)>>32&15 >= 13 {
			keys = append(keys, k)
		}
	}
	for i, k := range keys {
		v, _ := tb.Insert(k)
		*v = i
	}
	tb.Delete(keys[0])
	tb.Delete(keys[2])
	for i, k := range keys {
		if i == 0 || i == 2 {
			if tb.Get(k) != nil {
				t.Fatalf("deleted key %d still present", k)
			}
			continue
		}
		if v := tb.Get(k); v == nil || *v != i {
			t.Fatalf("key %d lost after wrap-around deletes (got %v)", k, v)
		}
	}
}
