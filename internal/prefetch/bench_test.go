package prefetch

import (
	"fmt"
	"testing"

	"pathfinder/internal/trace"
)

// benchPrefetchers enumerates every prefetcher whose Advise path is pinned
// zero-alloc in steady state and benchmarked into BENCH_prefetch.json. The
// constructors run per benchmark/test, so iterations never share state.
func benchPrefetchers() []struct {
	name string
	make func() Prefetcher
} {
	return []struct {
		name string
		make func() Prefetcher
	}{
		{"NextLine", func() Prefetcher { return &NextLine{} }},
		{"Stride", func() Prefetcher { return NewStride() }},
		{"NextPage", func() Prefetcher { return NewNextPage() }},
		{"BestOffset", func() Prefetcher { return NewBestOffset() }},
		{"SPP", func() Prefetcher { return NewSPP() }},
		{"SMS", func() Prefetcher { return NewSMS() }},
		{"VLDP", func() Prefetcher { return NewVLDP() }},
		{"ISB", func() Prefetcher { return NewISB() }},
		{"SISB", func() Prefetcher { return NewSISB() }},
		{"Pythia", func() Prefetcher { return NewPythia(1) }},
		{"Throttle", func() Prefetcher { return NewThrottle(NewBestOffset()) }},
		{"Ensemble", func() Prefetcher { return NewEnsemble(NewStride(), NewNextPage()) }},
		{"Dynamic", func() Prefetcher { return NewDynamicEnsemble(NewStride(), NewBestOffset()) }},
	}
}

// benchAccesses is the shared Advise workload: a fixed working set mixing
// strided streams, page-local re-references, and pointer-chase-like jumps
// across a handful of PCs. The set is deliberately bounded (modular
// indices) so every prefetcher's tables reach their steady-state size
// during warmup and stop growing — the zero-alloc assertion depends on it.
func benchAccesses(n int) []trace.Access {
	accs := make([]trace.Access, n)
	for i := range accs {
		var addr uint64
		switch pc := i % 4; pc {
		case 0: // stride-3 stream over 1024 blocks
			addr = uint64(i/4%1024) * 3 * trace.BlockBytes
		case 1: // dense page-local walk over 64 pages
			addr = 1<<30 + uint64(i/4%64)*trace.PageBytes + uint64(i%64)*trace.BlockBytes
		case 2: // stride-17 stream over 512 blocks
			addr = 2<<30 + uint64(i/4%512)*17*trace.BlockBytes
		default: // scrambled jumps over 2048 blocks
			addr = 3<<30 + uint64(i*2654435761)%2048*trace.BlockBytes
		}
		accs[i] = trace.Access{ID: uint64(i+1) * 8, PC: 0x400000 + uint64(i%4)*4, Addr: addr}
	}
	return accs
}

// evictAccesses is the eviction regime: a fixed cycle over 16K pages, four
// accesses per page at offsets 0, 2, 5 and 9, each page under one of 512
// PCs. Its working set overflows every bounded LRU table — SPP's 4,096
// pages, VLDP's 128, SMS's 64 generations, Stride's and NextPage's 256
// PCs, ISB's 8,192 mappings — so each of them evicts on every new page
// or PC, while the unbounded tables (SISB, VLDP's predictions) stop
// growing after one cycle.
func evictAccesses() []trace.Access {
	const pages, pcs = 16384, 512
	offsets := [4]uint64{0, 2, 5, 9}
	accs := make([]trace.Access, 0, pages*len(offsets))
	for k := uint64(0); k < pages; k++ {
		page := 1<<20 + k*7919%pages
		for _, off := range offsets {
			accs = append(accs, trace.Access{
				ID:   uint64(len(accs)+1) * 8,
				PC:   0x500000 + k%pcs*4,
				Addr: page*trace.PageBytes + off*trace.BlockBytes,
			})
		}
	}
	return accs
}

// BenchmarkAdvise measures each prefetcher's per-access Advise cost over
// the shared workload, after one full pass of warmup so growable tables
// are at steady state, and again (Evict/...) over evictAccesses. Recorded
// into BENCH_prefetch.json by `make bench-micro`.
func BenchmarkAdvise(b *testing.B) {
	benchAdvise(b, benchAccesses(4096))
	b.Run("Evict", func(b *testing.B) { benchAdvise(b, evictAccesses()) })
}

func benchAdvise(b *testing.B, accs []trace.Access) {
	for _, bp := range benchPrefetchers() {
		b.Run(bp.name, func(b *testing.B) {
			p := bp.make()
			for _, a := range accs {
				p.Advise(a, Budget)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Advise(accs[i%len(accs)], Budget)
			}
		})
	}
}

// TestAdviseSteadyStateZeroAlloc pins the flat-table contract: once a
// prefetcher has seen its working set, Advise allocates nothing — no
// per-call result slices, no map growth, no scratch rebuilds — on the
// shared workload and (Evict/...) while every bounded table evicts.
func TestAdviseSteadyStateZeroAlloc(t *testing.T) {
	checkZeroAlloc(t, benchAccesses(4096))
	t.Run("Evict", func(t *testing.T) { checkZeroAlloc(t, evictAccesses()) })
}

func checkZeroAlloc(t *testing.T, accs []trace.Access) {
	for _, bp := range benchPrefetchers() {
		t.Run(bp.name, func(t *testing.T) {
			p := bp.make()
			// Warm until every table has absorbed the full working set and
			// periodic maintenance (decay, gc, epoch expiry) has fired.
			for round := 0; round < 4; round++ {
				for _, a := range accs {
					p.Advise(a, Budget)
				}
			}
			i := 0
			avg := testing.AllocsPerRun(400, func() {
				p.Advise(accs[i%len(accs)], Budget)
				i++
			})
			if avg != 0 {
				t.Errorf("%s: Advise allocates %.2f/op in steady state, want 0", bp.name, avg)
			}
		})
	}
}

// TestBenchAccessesDeterministic keeps the benchmark workloads stable: the
// numbers in BENCH_prefetch.json are only comparable across commits if the
// workloads never drift.
func TestBenchAccessesDeterministic(t *testing.T) {
	if got := fmt.Sprintf("%016x", accessHash(benchAccesses(4096))); got != "4b8dc562aea58cbe" {
		t.Errorf("benchAccesses drifted: fnv64 %s", got)
	}
	if got := fmt.Sprintf("%016x", accessHash(evictAccesses())); got != "6bfd4cb05c94816d" {
		t.Errorf("evictAccesses drifted: fnv64 %s", got)
	}
}

// accessHash folds every access's ID, PC and address into one FNV-1a hash.
func accessHash(accs []trace.Access) uint64 {
	h := uint64(14695981039346656037)
	for _, a := range accs {
		for _, v := range [3]uint64{a.ID, a.PC, a.Addr} {
			for s := 0; s < 64; s += 8 {
				h = (h ^ (v >> s & 0xff)) * 1099511628211
			}
		}
	}
	return h
}
