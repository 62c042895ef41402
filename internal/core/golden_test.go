package core

import (
	"hash/fnv"
	"testing"

	"pathfinder/internal/trace"
	"pathfinder/internal/workload"
)

// The golden hashes below were captured from the pre-optimization (seed)
// implementation of snn.Present. They pin the entire SNN inference path —
// pixel encoding, rate-coded RNG draw order, tick-loop dynamics, STDP,
// winner selection, and prefetch issue — so any hot-path rewrite that is
// not bit-identical to the reference tick loop fails here. The determinism
// acceptance criterion of the perf PR ("byte-identical metrics before and
// after the optimization") is enforced by this test plus
// runner.TestRunDeterminism.
//
// To regenerate after an intentional semantic change, run with -v and copy
// the logged hashes.

// snnPathHash drives a PATHFINDER variant over a real generated trace and
// folds every query's winner and every issued prefetch into one FNV-1a
// hash. The winner sequence pins the SNN; the addresses pin the tables.
func snnPathHash(t *testing.T, cfg Config, traceName string, loads int) uint64 {
	t.Helper()
	accs, err := workload.Generate(traceName, loads, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	p.Hook = func(hist []int, winner int, prefetches []uint64) {
		put(uint64(int64(winner)))
	}
	for _, a := range accs {
		for _, addr := range p.Advise(a, 2) {
			put(addr)
		}
	}
	st := p.Stats()
	put(st.Queries)
	put(st.Issued)
	return h.Sum64()
}

func TestSNNPathGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replay is slow")
	}
	rate := DefaultConfig()

	multi := DefaultConfig()
	multi.MultiFire = true

	oneTick := DefaultConfig()
	oneTick.OneTick = true

	shortTicks := DefaultConfig()
	shortTicks.Ticks = 8

	// 65 neurons straddle the 64-lane word of the fired-this-tick mask,
	// so this case drives its partial final word, and a layer wider than
	// one word, through the full Advise path. Captured after the kernel
	// rewrite (bit-identity to the reference loop is separately pinned by
	// the refmodel oracle); it guards the wide layer from here on.
	wide := DefaultConfig()
	wide.Neurons = 65

	cases := []struct {
		name  string
		cfg   Config
		trace string
		loads int
		want  uint64
	}{
		{"rate-cc5", rate, "cc-5", 12000, 0x007eb9e6747127d8},
		{"rate-mcf", rate, "605-mcf-s1", 12000, 0x2217fe9d53910d85},
		{"multifire-cc5", multi, "cc-5", 12000, 0xf370c5122301ff71},
		{"onetick-cc5", oneTick, "cc-5", 12000, 0x92dfc892250f358e},
		{"ticks8-omnetpp", shortTicks, "471-omnetpp-s1", 12000, 0xaa22f16fd3cea057},
		{"wide65-cc5", wide, "cc-5", 12000, 0xa523be24b800f645},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := snnPathHash(t, tc.cfg, tc.trace, tc.loads)
			t.Logf("golden %s: %#016x", tc.name, got)
			if tc.want != 0 && got != tc.want {
				t.Errorf("SNN path diverged from seed implementation: hash %#016x, want %#016x", got, tc.want)
			}
		})
	}
}

// TestSNNPathGoldenUsesRNG sanity-checks that the golden replay actually
// exercises rate-coded Poisson input (RNG draw order), not only the
// deterministic paths: a different SNN seed must change the hash.
func TestSNNPathGoldenUsesRNG(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replay is slow")
	}
	a := DefaultConfig()
	b := DefaultConfig()
	b.Seed = 2
	ha := snnPathHash(t, a, "cc-5", 4000)
	hb := snnPathHash(t, b, "cc-5", 4000)
	if ha == hb {
		t.Fatalf("seed change did not change the SNN path hash (%#016x)", ha)
	}
	_ = trace.BlockBytes
}
