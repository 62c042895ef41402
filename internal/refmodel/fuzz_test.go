package refmodel

import (
	"testing"

	"pathfinder/internal/snn"
)

// Native fuzz targets over the differential oracle: the fuzzer explores
// configuration and workload space, and any panic (in either engine, or in
// a pfdebug invariant assertion when built with -tags pfdebug) or bit
// divergence between optimized engine and reference model is a finding.
// Seed corpora live under testdata/fuzz/; `make fuzz-short` gives each
// target a brief budget with the invariant assertions enabled.

// byteStream doles out fuzz bytes, yielding zeros once exhausted so any
// input prefix is a complete scenario.
type byteStream struct {
	b []byte
	i int
}

func (s *byteStream) next() byte {
	if s.i >= len(s.b) {
		return 0
	}
	v := s.b[s.i]
	s.i++
	return v
}

// FuzzPresent derives an SNN configuration and a presentation sequence from
// the fuzz input and requires the optimized snn.Network and the reference
// per-tick loop to stay bit-identical throughout.
func FuzzPresent(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(42), []byte{8, 3, 16, 50, 8, 20, 18, 4, 30, 5, 1, 2, 5, 10, 1, 0, 2, 1, 0, 200, 100, 0, 50, 255, 1})
	f.Add(int64(7), []byte{24, 7, 31, 99, 39, 29, 39, 5, 39, 19, 2, 15, 29, 11, 0, 1, 4, 3, 11, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	// 64 neurons (one full bitset word) with RefracE = Ticks+3: every
	// firing neuron stays refractory for the rest of the interval.
	f.Add(int64(11), []byte{16, 136, 10, 90, 20, 10, 4, 2, 20, 5, 1, 3, 7, 12, 0, 1, 131, 1, 5,
		255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1, 0})
	// 65 neurons (straddling the word), 24 inputs uniformly lit at
	// FireProb 1 (every pixel spikes every tick), zero excitation and
	// inhibition: dense WTA ties every tick, over two learned intervals.
	f.Add(int64(13), []byte{23, 137, 8, 99, 39, 0, 0, 0, 10, 0, 0, 1, 5, 10, 1, 0, 0, 0, 0,
		255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255,
		255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1, 0,
		255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255,
		255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1, 0})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		s := &byteStream{b: data}
		cfg := snn.DefaultConfig(1 + int(s.next())%24)
		nb := int(s.next())
		cfg.Neurons = 1 + nb%8
		if nb >= 128 {
			// High-bit regime: neuron counts straddling the 64-lane bitset
			// word of the batched kernels (fired/refractory masks, the
			// word-split threshold scans).
			cfg.Neurons = 58 + nb%13
		}
		cfg.Ticks = 1 + int(s.next())%16
		cfg.FireProb = float64(1+int(s.next())%100) / 100
		cfg.InputGain = 0.25 * float64(1+int(s.next())%40)
		cfg.Exc = float64(int(s.next()) % 30)
		cfg.Inh = float64(int(s.next()) % 40)
		cfg.InhHold = int(s.next()) % 6
		cfg.Norm = float64(1 + int(s.next())%40)
		cfg.ThetaPlus = float64(int(s.next())%20) / 100
		cfg.TCTheta = float64(int(s.next())%3) * 2000 // 0 disables decay
		cfg.NuPre = float64(int(s.next())%16) / 1000
		cfg.NuPost = float64(int(s.next())%16) / 100
		cfg.TraceTC = float64(1 + int(s.next())%30)
		// Two retired switch bytes (temporal coding, weight-dependent
		// STDP), still drawn so the seeds and corpus keep their other
		// fields.
		s.next()
		s.next()
		re := int(s.next())
		cfg.RefracE = re % 5
		if re >= 128 {
			// All-refractory regime: periods outlasting the interval pile
			// every firing neuron into the refractory mask at once, so
			// whole mask words go live and ticks run with no eligible
			// candidates.
			cfg.RefracE = cfg.Ticks + re%8
		}
		cfg.RefracI = int(s.next()) % 4
		// ResetE in [-60, -52): up to just below ThreshE (-52), the top
		// of the region snn.New accepts.
		cfg.ResetE = -60 + float64(int(s.next())%8)
		cfg.Seed = seed

		var presents []SNNPresent
		for k := 0; k < 4 && s.i < len(s.b); k++ {
			px := make([]float64, cfg.InputSize)
			for i := range px {
				px[i] = float64(s.next()) / 255
			}
			presents = append(presents, SNNPresent{
				Pixels:  px,
				Learn:   s.next()&1 == 1,
				OneTick: s.next()&3 == 3,
			})
		}
		if err := DiffSNN(cfg, presents); err != nil {
			t.Fatalf("config %+v\ndivergence: %v", cfg, err)
		}
	})
}

// FuzzCacheAccess derives a cache geometry and an operation stream from the
// fuzz input and requires sim.Cache and the reference Cache to agree on
// every hit, eviction and counter; under -tags pfdebug the optimized
// cache's LRU-stack assertions run on every operation as well. Bit 16 of
// geom once selected SRRIP and is now ignored.
func FuzzCacheAccess(f *testing.F) {
	f.Add(uint64(0x0101), []byte{})
	f.Add(uint64(0x0402), []byte{0, 1, 1, 2, 0, 1, 2, 3, 1, 1, 3, 2, 0, 9, 5, 1})
	f.Add(uint64(0x0803|1<<16), []byte{1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 0, 1, 0, 2, 0, 3, 2, 1, 4, 0, 0, 5})
	// Big-associativity seeds at the top of the packed recency word: 16
	// ways (the widest supported geometry) and 12 ways.
	f.Add(uint64(0x0704|1<<17), []byte{0, 1, 1, 2, 0, 3, 2, 4, 1, 5, 3, 6, 0, 7, 5, 8, 0, 9, 1, 10})
	f.Add(uint64(0x0304|1<<17), []byte{1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 0, 1, 0, 2, 2, 3, 4, 4})
	f.Fuzz(func(t *testing.T, geom uint64, data []byte) {
		sets := 1 + int(geom)%8
		ways := 1 + int(geom>>8)%8
		if geom>>17&1 == 1 {
			// Ways 9..16 cover the wide geometries up to the 16-way cap
			// of the packed recency word, where the top nibble falls off.
			ways = 9 + int(geom>>8)%8
		}
		space := uint64(sets*ways*3 + 1)
		var ops []CacheOp
		for i := 0; i+1 < len(data); i += 2 {
			ops = append(ops, CacheOp{
				Kind:  CacheOpKind(data[i]) % numCacheOpKinds,
				Block: uint64(data[i+1]) % space,
			})
		}
		if err := DiffCache(sets, ways, ops); err != nil {
			t.Fatalf("sets=%d ways=%d: %v", sets, ways, err)
		}
	})
}
