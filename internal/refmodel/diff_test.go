package refmodel

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"pathfinder/internal/prefetch"
	"pathfinder/internal/sim"
	"pathfinder/internal/snn"
	"pathfinder/internal/telemetry"
	"pathfinder/internal/trace"
	"pathfinder/internal/workload"
)

// The tests below are the standing differential oracle: each runs dozens of
// seeded random scenarios through an optimized engine and its reference
// model and fails on the first bit divergence. Seeds are the case index, so
// a failure report like "case 17" reproduces with -run 'TestDiffSNN/case-17'.

// randomSNNConfig draws a valid but adversarial SNN configuration from the
// region snn.New accepts: small sizes so many presentations run quickly,
// with weak inhibition, zero theta increments, disabled theta decay and
// zero refractory periods exercised across cases.
func randomSNNConfig(r *rand.Rand) snn.Config {
	cfg := snn.DefaultConfig(4 + r.Intn(36))
	cfg.Neurons = 2 + r.Intn(10)
	cfg.Ticks = 4 + r.Intn(28)
	cfg.Seed = r.Int63n(1 << 40)
	cfg.FireProb = 0.1 + 0.9*r.Float64()
	cfg.InputGain = 0.5 + 10*r.Float64()
	cfg.Exc = 25 * r.Float64()
	cfg.Inh = 20 * r.Float64()
	cfg.InhHold = r.Intn(6)
	cfg.Norm = 5 + 40*r.Float64()
	cfg.ThetaPlus = 0.2 * r.Float64()
	if r.Intn(6) == 0 {
		cfg.ThetaPlus = 0
	}
	cfg.TCTheta = float64(r.Intn(3)) * 5000 // 0 disables theta decay
	cfg.NuPre = 0.01 * r.Float64()
	cfg.NuPost = 0.1 * r.Float64()
	cfg.TraceTC = 2 + 30*r.Float64()
	cfg.RefracE = r.Intn(6)
	cfg.RefracI = r.Intn(4)
	return cfg
}

// randomPixels draws a sparse input vector like PATHFINDER's pixel
// matrices: a handful of lit pixels, intensities in (0, 1], occasionally
// fully dark or fully lit.
func randomPixels(r *rand.Rand, size int) []float64 {
	px := make([]float64, size)
	switch r.Intn(10) {
	case 0: // all dark: no input spike and no fire in the interval
	case 1: // all lit
		for i := range px {
			px[i] = 1
		}
	default:
		lit := 1 + r.Intn(size)
		if lit > 8 {
			lit = 1 + r.Intn(8)
		}
		for k := 0; k < lit; k++ {
			v := r.Float64()
			if r.Intn(3) == 0 {
				v = 1
			}
			px[r.Intn(size)] = v
		}
	}
	return px
}

func TestDiffSNN(t *testing.T) {
	cases := 150
	presents := 6
	if testing.Short() {
		cases = 60
		presents = 4
	}
	for i := 0; i < cases; i++ {
		i := i
		t.Run(caseName(i), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(1000 + i)))
			cfg := randomSNNConfig(r)
			seq := make([]SNNPresent, presents)
			for k := range seq {
				seq[k] = SNNPresent{
					Pixels:  randomPixels(r, cfg.InputSize),
					Learn:   r.Intn(4) != 0,
					OneTick: r.Intn(6) == 0,
				}
			}
			if err := DiffSNN(cfg, seq); err != nil {
				t.Fatalf("config %+v\ndivergence: %v", cfg, err)
			}
		})
	}
}

func TestDiffCache(t *testing.T) {
	cases := 120
	ops := 400
	if testing.Short() {
		cases = 60
		ops = 200
	}
	for i := 0; i < cases; i++ {
		i := i
		t.Run(caseName(i), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(2000 + i)))
			sets := 1 + r.Intn(8)
			ways := 1 + r.Intn(6)
			// A block space a few times the cache capacity forces steady
			// conflict misses and evictions.
			space := uint64(sets*ways*3 + 1)
			seq := make([]CacheOp, ops)
			for k := range seq {
				kind := CacheOpKind(r.Intn(int(numCacheOpKinds)))
				if kind == CacheReset && r.Intn(4) != 0 {
					kind = CacheLookup // keep resets rare so state accumulates
				}
				seq[k] = CacheOp{Kind: kind, Block: r.Uint64() % space}
			}
			if err := DiffCache(sets, ways, seq); err != nil {
				t.Fatalf("sets=%d ways=%d: %v", sets, ways, err)
			}
		})
	}
}

func TestDiffDRAM(t *testing.T) {
	cases := 120
	ops := 400
	if testing.Short() {
		cases = 60
		ops = 200
	}
	for i := 0; i < cases; i++ {
		i := i
		t.Run(caseName(i), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(3000 + i)))
			cfg := sim.DRAMConfig{
				Channels:  1 + r.Intn(2),
				Ranks:     1 + r.Intn(2),
				Banks:     1 + r.Intn(4),
				TRP:       1 + r.Intn(60),
				TRCD:      1 + r.Intn(60),
				TCAS:      1 + r.Intn(60),
				BusCycles: 1 + r.Intn(10),
				ReadQueue: 1 + r.Intn(8),
				RowBlocks: 1 + r.Intn(32),
			}
			now := uint64(0)
			seq := make([]DRAMOp, ops)
			for k := range seq {
				// Mostly-increasing request times with occasional bursts at
				// the same cycle (queue pressure) and small back-steps
				// (cores dispatch out of global order).
				switch r.Intn(5) {
				case 0:
				case 1:
					if now > 10 {
						now -= uint64(r.Intn(10))
					}
				default:
					now += uint64(r.Intn(100))
				}
				seq[k] = DRAMOp{Block: r.Uint64() % 4096, Now: now}
			}
			if err := DiffDRAM(cfg, seq); err != nil {
				t.Fatalf("cfg %+v: %v", cfg, err)
			}
		})
	}
}

// randomMachine draws a scaled-down machine so short traces still thrash
// every level of the hierarchy.
func randomMachine(r *rand.Rand) sim.Config {
	cfg := sim.Config{
		L1Sets: 1 + r.Intn(4), L1Ways: 1 + r.Intn(4), L1Lat: 1 + r.Intn(6),
		L2Sets: 2 + r.Intn(8), L2Ways: 1 + r.Intn(4), L2Lat: 2 + r.Intn(12),
		LLCSets: 4 + r.Intn(16), LLCWays: 1 + r.Intn(8), LLCLat: 4 + r.Intn(20),
		DRAM: sim.DRAMConfig{
			Channels:  1,
			Ranks:     1 + r.Intn(2),
			Banks:     1 + r.Intn(4),
			TRP:       10 + r.Intn(50),
			TRCD:      10 + r.Intn(50),
			TCAS:      10 + r.Intn(50),
			BusCycles: 1 + r.Intn(8),
			ReadQueue: 2 + r.Intn(16),
			RowBlocks: 1 + r.Intn(32),
		},
		Width: 1 + r.Intn(4),
		ROB:   16 << r.Intn(4),
	}
	if r.Intn(3) == 0 {
		cfg.PrefetchDropDepth = 1 + r.Intn(8)
	}
	return cfg
}

// randomTrace draws a synthetic load trace: increasing IDs with random
// gaps, addresses clustered over a few pages (reuse plus conflict misses),
// and occasional dependence chains.
func randomTrace(r *rand.Rand, n int) []trace.Access {
	accs := make([]trace.Access, n)
	id := uint64(1 + r.Intn(10))
	pages := 1 + r.Intn(12)
	for k := range accs {
		accs[k] = trace.Access{
			ID:   id,
			PC:   0x400000 + uint64(r.Intn(16))*4,
			Addr: uint64(r.Intn(pages))*trace.PageBytes + uint64(r.Intn(trace.BlocksPerPage))*trace.BlockBytes,
		}
		if r.Intn(6) == 0 {
			accs[k].Chain = uint32(1 + r.Intn(3))
		}
		id += uint64(1 + r.Intn(20))
	}
	return accs
}

// randomPrefetchFile draws prefetch entries keyed (non-decreasing) to the
// trace's instruction IDs, targeting blocks near the trace's pages.
func randomPrefetchFile(r *rand.Rand, accs []trace.Access) []trace.Prefetch {
	var pfs []trace.Prefetch
	for _, a := range accs {
		for r.Intn(3) == 0 {
			delta := int64(r.Intn(2*trace.BlocksPerPage)) - trace.BlocksPerPage
			addr := int64(a.Addr) + delta*trace.BlockBytes
			if addr < 0 {
				addr = 0
			}
			pfs = append(pfs, trace.Prefetch{ID: a.ID, Addr: uint64(addr)})
		}
	}
	return pfs
}

func TestDiffRun(t *testing.T) {
	cases := 60
	loads := 1500
	if testing.Short() {
		cases = 25
		loads = 600
	}
	for i := 0; i < cases; i++ {
		i := i
		t.Run(caseName(i), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(4000 + i)))
			cfg := randomMachine(r)
			nCores := 1 + r.Intn(3)
			cores := make([][]trace.Access, nCores)
			pfs := make([][]trace.Prefetch, nCores)
			for c := range cores {
				n := loads/2 + r.Intn(loads/2)
				if r.Intn(20) == 0 {
					n = 0 // an idle core must not perturb the others
				}
				cores[c] = randomTrace(r, n)
				switch r.Intn(3) {
				case 0: // no prefetching
				default:
					pfs[c] = randomPrefetchFile(r, cores[c])
				}
			}
			if r.Intn(2) == 0 {
				min := len(cores[0])
				for _, c := range cores[1:] {
					if len(c) < min {
						min = len(c)
					}
				}
				if min > 10 {
					cfg.Warmup = 1 + r.Intn(min/2)
				}
			}
			if err := DiffRun(cfg, cores, pfs); err != nil {
				t.Fatalf("cfg %+v cores=%d: %v", cfg, nCores, err)
			}
			if nCores == 1 {
				cuts := make([]int, r.Intn(20))
				for k := range cuts {
					cuts[k] = r.Intn(len(pfs[0]) + 1)
				}
				sort.Ints(cuts)
				if err := diffRunChunked(cfg, cores[0], pfs[0], cuts); err != nil {
					t.Fatalf("cfg %+v, file cut at %v: %v", cfg, cuts, err)
				}
			}
		})
	}
}

// chunkedFile delivers a prefetch file in the chunks that end at cuts,
// ascending indices into file, each complete through the id just below
// the next undelivered entry's, the last through math.MaxUint64.
type chunkedFile struct {
	file []trace.Prefetch
	cuts []int
	pos  int
}

func (f *chunkedFile) Next() ([]trace.Prefetch, uint64, error) {
	end := len(f.file)
	if len(f.cuts) > 0 {
		end, f.cuts = f.cuts[0], f.cuts[1:]
	}
	chunk := f.file[f.pos:end]
	f.pos = end
	if end == len(f.file) {
		return chunk, math.MaxUint64, nil
	}
	return chunk, max(f.file[end].ID, 1) - 1, nil
}

// diffRunChunked is single-core DiffRun with the simulator reading the
// file in the chunks cuts makes, the way a cell's timed replay reads the
// file its generation writes.
func diffRunChunked(cfg sim.Config, accs []trace.Access, pfs []trace.Prefetch, cuts []int) error {
	eng, release := sim.AcquireEngine(cfg)
	defer release()
	r1, e1 := eng.RunFeedCtx(context.Background(), trace.NewSliceSource(accs), &chunkedFile{file: pfs, cuts: cuts})
	r2, e2 := RunMulti(cfg, [][]trace.Access{accs}, [][]trace.Prefetch{pfs})
	if (e1 == nil) != (e2 == nil) {
		return fmt.Errorf("error divergence: sim %v, refmodel %v", e1, e2)
	}
	if e1 == nil && r1 != r2[0] {
		return fmt.Errorf("result %+v, reference %+v", r1, r2[0])
	}
	return nil
}

// TestDiffRunStream drives the streaming replay pipeline (encode →
// trace.Reader → windowed replay) against the reference model over the
// same randomized machine/workload grid as TestDiffRun — the oracle's
// proof that windowed replay is bit-identical to slice replay.
func TestDiffRunStream(t *testing.T) {
	cases := 30
	loads := 1500
	if testing.Short() {
		cases = 12
		loads = 600
	}
	for i := 0; i < cases; i++ {
		i := i
		t.Run(caseName(i), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(9000 + i)))
			cfg := randomMachine(r)
			nCores := 1 + r.Intn(3)
			cores := make([][]trace.Access, nCores)
			pfs := make([][]trace.Prefetch, nCores)
			for c := range cores {
				n := loads/2 + r.Intn(loads/2)
				if r.Intn(20) == 0 {
					n = 0 // an idle core must not perturb the others
				}
				cores[c] = randomTrace(r, n)
				switch r.Intn(3) {
				case 0: // no prefetching
				default:
					pfs[c] = randomPrefetchFile(r, cores[c])
				}
			}
			if r.Intn(2) == 0 {
				min := len(cores[0])
				for _, c := range cores[1:] {
					if len(c) < min {
						min = len(c)
					}
				}
				if min > 10 {
					cfg.Warmup = 1 + r.Intn(min/2)
				}
			}
			if err := DiffRunStream(cfg, cores, pfs); err != nil {
				t.Fatalf("cfg %+v cores=%d: %v", cfg, nCores, err)
			}
		})
	}
}

// TestDiffRunStreamRealWorkload pins the streaming oracle on the actual
// evaluation flow, mirroring TestDiffRunRealWorkload.
func TestDiffRunStreamRealWorkload(t *testing.T) {
	loads := 8000
	if testing.Short() {
		loads = 2000
	}
	for _, name := range []string{"cc-5", "605-mcf-s1"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			accs, err := workload.Generate(name, loads, 1)
			if err != nil {
				t.Fatal(err)
			}
			file := nextLineFile(t, accs)
			cfg := sim.ScaledConfig()
			cfg.Warmup = loads / 10
			if err := DiffRunStream(cfg, [][]trace.Access{accs}, [][]trace.Prefetch{file}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
	}
}

// TestDiffRunRealWorkload pins the oracle against the actual evaluation
// flow: a generated benchmark trace with a real prefetcher's file, replayed
// on the scaled Table 3 machine.
func TestDiffRunRealWorkload(t *testing.T) {
	loads := 8000
	if testing.Short() {
		loads = 2000
	}
	for _, name := range []string{"cc-5", "605-mcf-s1"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			accs, err := workload.Generate(name, loads, 1)
			if err != nil {
				t.Fatal(err)
			}
			file := nextLineFile(t, accs)
			cfg := sim.ScaledConfig()
			cfg.Warmup = loads / 10
			if err := DiffRun(cfg, [][]trace.Access{accs}, [][]trace.Prefetch{file}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
	}
}

// TestDiffSNNRealConfig pins the oracle on the paper's Table 4 network at
// full size, over enough learned presentations for weights, thetas and the
// RNG stream to diverge if any fast path is wrong.
func TestDiffSNNRealConfig(t *testing.T) {
	presents := 40
	if testing.Short() {
		presents = 12
	}
	cfg := snn.DefaultConfig(127 * 3)
	r := rand.New(rand.NewSource(7))
	seq := make([]SNNPresent, presents)
	for k := range seq {
		seq[k] = SNNPresent{Pixels: randomPixels(r, cfg.InputSize), Learn: true}
	}
	if err := DiffSNN(cfg, seq); err != nil {
		t.Fatal(err)
	}
}

// TestDiffSNNBitsetWordBoundary pins the regimes the random generator
// rarely reaches: neuron counts straddling the 64-lane word of the
// fired-this-tick mask (63/64/65, exercising its partial final word),
// refractory periods outlasting the interval (ticks with no eligible
// candidate), and dense WTA ties (uniform state, every neuron crossing
// threshold on the same tick — the first-candidate tie-break must survive
// reordering, and a fired list as wide as the layer).
// With FireProb 1 every lit pixel spikes on every tick, which aligns the
// whole layer without any special input coding.
func TestDiffSNNBitsetWordBoundary(t *testing.T) {
	presents := 8
	if testing.Short() {
		presents = 4
	}
	for _, n := range []int{63, 64, 65} {
		n := n
		t.Run(fmt.Sprintf("neurons-%d", n), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(9000 + n)))
			cfg := snn.DefaultConfig(32)
			cfg.Neurons = n
			cfg.Ticks = 12
			cfg.RefracE = 3
			cfg.InhHold = 2
			cfg.Seed = int64(n)
			seq := make([]SNNPresent, presents)
			for k := range seq {
				seq[k] = SNNPresent{Pixels: randomPixels(r, cfg.InputSize), Learn: true}
			}
			if err := DiffSNN(cfg, seq); err != nil {
				t.Fatalf("neurons=%d: %v", n, err)
			}
		})
	}
	t.Run("all-refractory", func(t *testing.T) {
		t.Parallel()
		cfg := snn.DefaultConfig(16)
		cfg.Neurons = 65
		cfg.Ticks = 10
		cfg.RefracE = cfg.Ticks + 4 // one fire silences a neuron for the interval
		cfg.FireProb = 1
		cfg.InputGain = 40
		cfg.Seed = 3
		lit := make([]float64, cfg.InputSize)
		for i := range lit {
			lit[i] = 1
		}
		seq := make([]SNNPresent, presents)
		for k := range seq {
			seq[k] = SNNPresent{Pixels: lit, Learn: true}
		}
		if err := DiffSNN(cfg, seq); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("dense-ties", func(t *testing.T) {
		t.Parallel()
		cfg := snn.DefaultConfig(24)
		cfg.Neurons = 64
		cfg.Ticks = 8
		cfg.FireProb = 1 // every lit pixel spikes every tick: every neuron aligned
		cfg.Exc = 0
		cfg.Inh = 0
		cfg.ThetaPlus = 0
		cfg.InputGain = 30
		cfg.Seed = 5
		lit := make([]float64, cfg.InputSize)
		for i := range lit {
			lit[i] = 1
		}
		seq := make([]SNNPresent, presents)
		for k := range seq {
			seq[k] = SNNPresent{Pixels: lit, Learn: true}
		}
		if err := DiffSNN(cfg, seq); err != nil {
			t.Fatal(err)
		}
	})
}

// nextLineFile is a NextLine prefetch file for accs at budget 2, the real
// prefetcher the real-workload oracle runs replay.
func nextLineFile(t *testing.T, accs []trace.Access) []trace.Prefetch {
	t.Helper()
	file, err := prefetch.GenerateFileCtx(context.Background(), &prefetch.NextLine{}, accs, 2)
	if err != nil {
		t.Fatal(err)
	}
	return file
}

func caseName(i int) string {
	return "case-" + string(rune('0'+i/100%10)) + string(rune('0'+i/10%10)) + string(rune('0'+i%10))
}

// TestDiffRunEmptyMeasuredWindowAgrees pins the empty-measured-window
// error path: both engines must reject a warmup that eats essentially the
// whole trace (one cheap L1-hitting access left), not fabricate an IPC.
func TestDiffRunEmptyMeasuredWindowAgrees(t *testing.T) {
	accs := make([]trace.Access, 100)
	for i := range accs {
		accs[i] = trace.Access{ID: uint64(i + 1), PC: 1, Addr: 0}
	}
	cfg := sim.DefaultConfig()
	cfg.Warmup = len(accs) - 1
	if _, err := sim.Run(cfg, accs, nil); err == nil {
		t.Fatal("sim accepted an empty measured window")
	}
	if err := DiffRun(cfg, [][]trace.Access{accs}, nil); err != nil {
		t.Fatalf("engines disagree on the empty-window error: %v", err)
	}
}

// TestDiffRunTelemetryOn re-runs the real-workload oracle with the
// simulator's telemetry recording. The reference model is deliberately
// uninstrumented, so any way telemetry could perturb the optimized engine —
// an extra allocation shifting GC, a miscounted stat leaking into Result —
// shows up as a divergence here.
func TestDiffRunTelemetryOn(t *testing.T) {
	reg := telemetry.NewRegistry()
	sim.EnableTelemetry(reg)
	defer sim.EnableTelemetry(nil)

	loads := 8000
	if testing.Short() {
		loads = 2000
	}
	accs, err := workload.Generate("cc-5", loads, 1)
	if err != nil {
		t.Fatal(err)
	}
	file := nextLineFile(t, accs)
	cfg := sim.ScaledConfig()
	cfg.Warmup = loads / 10
	if err := DiffRun(cfg, [][]trace.Access{accs}, [][]trace.Prefetch{file}); err != nil {
		t.Fatalf("telemetry-on run diverged from reference: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Counters["sim.runs"] == 0 || snap.Counters["sim.demand_loads"] == 0 {
		t.Errorf("telemetry recorded nothing during the differential run: %+v", snap.Counters)
	}
}
