// Package snn implements the spiking neural network at the heart of
// PATHFINDER: a Diehl & Cook-style three-layer network of leaky
// integrate-and-fire (LIF) neurons — an input layer, an excitatory layer
// and a one-to-one inhibitory layer — trained on-line by spike-timing-
// dependent plasticity (STDP). It reproduces the behaviour of the BindsNet
// "DiehlAndCook" model the paper builds on (§3.1, Table 4), including
// Poisson rate encoding of inputs, adaptive firing thresholds, lateral
// inhibition, per-sample weight normalisation, and the low-cost 1-tick
// approximation of §3.4.
//
// The tick loop is the per-access hot path of the whole reproduction (one
// Present per SNN query per trace miss), so it is engineered as an
// allocation-free engine whose inhibitory-layer and trace work walks only
// the neurons that fired in the interval — see docs/performance.md for the
// hot-path map and the invariants it relies on. Every optimisation
// preserves the exact floating-point operation sequence and RNG draw
// order of the straightforward per-tick reference loop, so results are
// bit-identical (pinned by core's TestSNNPathGolden and the refmodel
// differential oracle).
package snn

import (
	"fmt"
	"math"
)

// Config holds the network hyper-parameters. Defaults follow Table 4 of the
// paper with the remaining LIF constants taken from the Diehl & Cook model
// the paper instantiates in BindsNet.
type Config struct {
	// InputSize is the number of input neurons (D × H for PATHFINDER).
	InputSize int
	// Neurons is the number of excitatory neurons (and, one-to-one,
	// inhibitory neurons). Table 4: 50.
	Neurons int
	// Exc is the excitatory→inhibitory connection strength. Table 4: 20.5.
	Exc float64
	// Inh is the inhibitory→excitatory connection strength. Table 4: 17.5.
	// Lowering it lets several excitatory neurons fire per interval,
	// which PATHFINDER uses for multi-degree prefetching (§3.4).
	Inh float64
	// InhHold is how many ticks an inhibitory neuron keeps suppressing
	// the other excitatory neurons after it fires. Sustained inhibition
	// is what gives the network its winner-take-all behaviour between the
	// winner's refractory gaps.
	InhHold int
	// Norm is the per-neuron input-weight sum enforced after every
	// sample. Table 4: 38.4.
	Norm float64
	// ThetaPlus is the adaptive-threshold increment on each excitatory
	// spike. Table 4: 0.05.
	ThetaPlus float64
	// TCTheta is the adaptive-threshold decay time constant in ticks.
	// Without decay a frequently-winning neuron's threshold grows without
	// bound and it eventually falls silent; decay lets thresholds relax
	// as the workload moves between phases.
	TCTheta float64
	// Ticks is the input-interval length T. Table 4: 32.
	Ticks int
	// FireProb is the per-tick Poisson spike probability of a fully-lit
	// input pixel (rate coding intensity).
	FireProb float64
	// InputGain scales the synaptic current delivered by each input
	// spike. PATHFINDER's pixel matrices light only a handful of pixels
	// (versus hundreds for the MNIST images the Diehl & Cook model was
	// tuned for), so without gain the excitatory layer rarely reaches
	// threshold within an interval — the sparsity problem §3.4 discusses.
	InputGain float64
	// NuPre and NuPost are the STDP learning rates for the pre- and
	// post-synaptic updates of BindsNet's additive PostPre rule.
	NuPre, NuPost float64
	// WMax clamps learned weights to [0, WMax].
	WMax float64
	// TraceTC is the STDP trace time constant in ticks.
	TraceTC float64
	// Excitatory LIF constants.
	RestE, ResetE, ThreshE, TCDecayE float64
	RefracE                          int
	// Inhibitory LIF constants.
	RestI, ResetI, ThreshI, TCDecayI float64
	RefracI                          int
	// Seed makes weight initialisation and Poisson encoding
	// deterministic.
	Seed int64
}

// DefaultConfig returns the paper's Table 4 configuration for an input of
// the given size.
func DefaultConfig(inputSize int) Config {
	return Config{
		InputSize: inputSize,
		Neurons:   50,
		Exc:       20.5,
		Inh:       17.5,
		InhHold:   4,
		Norm:      38.4,
		ThetaPlus: 0.05,
		TCTheta:   1e4,
		Ticks:     32,
		FireProb:  0.5,
		InputGain: 8,
		NuPre:     1e-3,
		NuPost:    5e-2,
		WMax:      1.0,
		TraceTC:   20,
		RestE:     -65, ResetE: -60, ThreshE: -52, TCDecayE: 100, RefracE: 5,
		RestI: -60, ResetI: -45, ThreshI: -40, TCDecayI: 10, RefracI: 2,
		Seed: 1,
	}
}

// Network is a Diehl & Cook SNN. It is not safe for concurrent use.
type Network struct {
	cfg Config

	// w is the learned input→excitatory weight matrix, row-major
	// [input][neuron].
	w     []float64
	theta []float64 // adaptive threshold offsets, one per excitatory neuron

	vE      []float64 // excitatory membrane potentials
	vI      []float64 // inhibitory membrane potentials
	refracE []int
	refracI []int

	xPre     []float64 // pre-synaptic traces (lazy-decayed)
	xPreTick []int     // tick of last xPre update
	xPost    []float64 // post-synaptic traces

	decayE, decayI, decayTrace, decayTheta float64
	// tracePow caches math.Pow(decayTrace, dt) for dt in [0, Ticks);
	// within an interval a pre-trace is never staler than that (older
	// traces take the lazy-reset path in decayPreTrace).
	tracePow []float64

	rand *rng

	// spikeCounts accumulates excitatory spikes within the current
	// interval. Results copy it out (never alias it): see PresentInto.
	spikeCounts []int

	// monitor, when non-nil, records per-tick state.
	monitor *Monitor

	tick int

	// Scratch buffers reused across Present calls so the steady-state
	// hot path performs zero heap allocations. All of this is
	// per-interval transient state: it is reset or rebuilt by every
	// Present and deliberately NOT serialized (see serialize.go — only
	// learned state persists).
	scrActive   []int     // lit-pixel indices of the current input
	scrPre      []int     // this tick's input spikes, in ascending pixel order
	scrInhHold  []int     // remaining suppression ticks per inhibitory neuron
	scrFired    []int     // distinct neurons fired in the last full interval, in fire order
	scrTickFire []int     // neurons fired within the current tick, in fire order
	scrCand     []int     // above-threshold candidates within a tick
	scrThr      []float64 // cached ThreshE + theta[j], refreshed on fire
	scrPot      []float64
	scrSpikedW  bitset // excitatory neurons that fired this tick

	// lastReset is the tick at which resetState last ran. Pre-synaptic
	// traces are zeroed lazily against it: any xPreTick at or before it
	// means the trace belongs to a previous interval and reads as zero,
	// sparing resetState a full InputSize-wide wipe per Present.
	lastReset int
}

// New constructs a network with uniform-random initial weights in
// [0, 0.3 × WMax], mirroring BindsNet's initialisation. It rejects any
// configuration outside the region the engine is exact for (see
// checkRegion).
func New(cfg Config) (*Network, error) {
	if cfg.InputSize <= 0 || cfg.Neurons <= 0 {
		return nil, fmt.Errorf("snn: input size %d and neurons %d must be positive", cfg.InputSize, cfg.Neurons)
	}
	if cfg.Ticks <= 0 {
		return nil, fmt.Errorf("snn: ticks %d must be positive", cfg.Ticks)
	}
	if cfg.FireProb <= 0 || cfg.FireProb > 1 {
		return nil, fmt.Errorf("snn: fire probability %v outside (0, 1]", cfg.FireProb)
	}
	if cfg.InputGain <= 0 {
		return nil, fmt.Errorf("snn: input gain %v must be positive", cfg.InputGain)
	}
	if err := checkRegion(cfg); err != nil {
		return nil, err
	}
	n := &Network{
		cfg:         cfg,
		w:           make([]float64, cfg.InputSize*cfg.Neurons),
		theta:       make([]float64, cfg.Neurons),
		vE:          make([]float64, cfg.Neurons),
		vI:          make([]float64, cfg.Neurons),
		refracE:     make([]int, cfg.Neurons),
		refracI:     make([]int, cfg.Neurons),
		xPre:        make([]float64, cfg.InputSize),
		xPreTick:    make([]int, cfg.InputSize),
		xPost:       make([]float64, cfg.Neurons),
		spikeCounts: make([]int, cfg.Neurons),
		decayE:      math.Exp(-1 / cfg.TCDecayE),
		decayI:      math.Exp(-1 / cfg.TCDecayI),
		decayTrace:  math.Exp(-1 / cfg.TraceTC),
		decayTheta:  1,
		rand:        newRNG(cfg.Seed),

		scrInhHold:  make([]int, cfg.Neurons),
		scrFired:    make([]int, 0, 8),
		scrTickFire: make([]int, 0, 8),
		scrCand:     make([]int, 0, 8),
		scrThr:      make([]float64, cfg.Neurons),
		scrPot:      make([]float64, cfg.Neurons),
		scrSpikedW:  newBitset(cfg.Neurons),
	}
	if cfg.TCTheta > 0 {
		n.decayTheta = math.Exp(-float64(cfg.Ticks) / cfg.TCTheta)
	}
	n.tracePow = make([]float64, cfg.Ticks)
	for dt := range n.tracePow {
		n.tracePow[dt] = math.Pow(n.decayTrace, float64(dt))
	}
	for i := range n.w {
		n.w[i] = 0.3 * cfg.WMax * n.rand.float64()
	}
	for j := range n.vE {
		n.vE[j] = cfg.RestE
		n.vI[j] = cfg.RestI
	}
	n.normalize()
	return n, nil
}

// checkRegion rejects a configuration outside the region the engine is
// exact for: undriven potentials decay towards a rest below threshold, a
// neuron leaving refractory resets below threshold (theta never goes
// negative), a fire only lowers the other potentials, and refractory
// countdowns start at zero or above. That is what keeps an inhibitory
// neuron at rest until its excitatory partner fires and lets the
// winner-take-all loop filter its candidates instead of rescanning (see
// docs/performance.md). Every comparison fails on NaN.
func checkRegion(cfg Config) error {
	for _, c := range [...]struct {
		field string
		v     float64
		ok    bool
		rel   string
		bound float64
	}{
		{"RestE", cfg.RestE, cfg.RestE < cfg.ThreshE, "below ThreshE", cfg.ThreshE},
		{"ResetE", cfg.ResetE, cfg.ResetE < cfg.ThreshE, "below ThreshE", cfg.ThreshE},
		{"RestI", cfg.RestI, cfg.RestI < cfg.ThreshI, "below ThreshI", cfg.ThreshI},
		{"ResetI", cfg.ResetI, cfg.ResetI < cfg.ThreshI, "below ThreshI", cfg.ThreshI},
		{"Inh", cfg.Inh, cfg.Inh >= 0, "at least", 0},
		{"ThetaPlus", cfg.ThetaPlus, cfg.ThetaPlus >= 0, "at least", 0},
		{"TraceTC", cfg.TraceTC, cfg.TraceTC >= 0, "at least", 0},
		{"TCTheta", cfg.TCTheta, cfg.TCTheta >= 0, "at least", 0},
		{"Norm", cfg.Norm, cfg.Norm > 0, "above", 0},
		{"WMax", cfg.WMax, cfg.WMax > 0, "above", 0},
		{"TCDecayE", cfg.TCDecayE, cfg.TCDecayE > 0, "above", 0},
		{"TCDecayI", cfg.TCDecayI, cfg.TCDecayI > 0, "above", 0},
		{"RefracE", float64(cfg.RefracE), cfg.RefracE >= 0, "at least", 0},
		{"RefracI", float64(cfg.RefracI), cfg.RefracI >= 0, "at least", 0},
	} {
		if !c.ok {
			return fmt.Errorf("snn: %s %v must be %s %v", c.field, c.v, c.rel, c.bound)
		}
	}
	return nil
}

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// Weights returns the weight between input i and excitatory neuron j.
func (n *Network) Weight(i, j int) float64 { return n.w[i*n.cfg.Neurons+j] }

// Theta returns neuron j's adaptive threshold offset.
func (n *Network) Theta(j int) float64 { return n.theta[j] }

// SetMonitor attaches (or with nil, detaches) a per-tick state recorder.
func (n *Network) SetMonitor(m *Monitor) { n.monitor = m }

// Result summarises one presented input interval.
type Result struct {
	// Spikes is the per-excitatory-neuron spike count over the interval.
	// It is a copy owned by the Result's holder: it stays valid across
	// subsequent Present calls on the same network.
	Spikes []int
	// Winner is the index of the most-firing neuron, or -1 if no neuron
	// fired.
	Winner int
	// FirstFireTick is the tick of the first excitatory spike (1-based),
	// or 0 if none fired.
	FirstFireTick int
}

// FiredNeurons returns the neurons that fired at least once, ordered by
// descending spike count (ties by lower index). PATHFINDER uses this for
// multi-degree prefetching with lowered inhibition (§3.4).
func (r Result) FiredNeurons() []int {
	return r.AppendFiredNeurons(nil)
}

// AppendFiredNeurons is FiredNeurons appending into dst (which may be a
// reused scratch slice with dst[:0]) to avoid the per-query allocation on
// the multi-degree hot path.
func (r Result) AppendFiredNeurons(dst []int) []int {
	fired := dst
	for j, c := range r.Spikes {
		if c > 0 {
			fired = append(fired, j)
		}
	}
	// Insertion sort by count descending: the list is tiny.
	for i := len(dst) + 1; i < len(fired); i++ {
		for k := i; k > len(dst) && r.Spikes[fired[k]] > r.Spikes[fired[k-1]]; k-- {
			fired[k], fired[k-1] = fired[k-1], fired[k]
		}
	}
	return fired
}

// Present runs one input interval of cfg.Ticks ticks. pixels is the input
// intensity vector in [0, 1] (the flattened Memory Access Pixel Matrix);
// each pixel emits Poisson spikes at rate FireProb × intensity per tick.
// When learn is true, STDP adjusts weights during the interval and the
// per-neuron weight sums are re-normalised afterwards. State variables
// (potentials, refractory counters, traces) are reset before the interval,
// as BindsNet does between samples; adaptive thresholds and weights persist.
//
// Present allocates a fresh Result.Spikes per call; hot callers that reuse
// a Result across queries should use PresentInto, which is allocation-free
// at steady state.
func (n *Network) Present(pixels []float64, learn bool) (Result, error) {
	var res Result
	err := n.PresentInto(&res, pixels, learn)
	return res, err
}

// PresentInto is Present writing its outcome into *res. res.Spikes is
// grown once to the neuron count and then reused, so presenting into the
// same Result repeatedly performs zero heap allocations at steady state.
// The spike counts are copied out of the network's internal accumulator —
// a Result retained across later Present calls keeps its values.
func (n *Network) PresentInto(res *Result, pixels []float64, learn bool) error {
	if len(pixels) != n.cfg.InputSize {
		return fmt.Errorf("snn: input length %d, want %d", len(pixels), n.cfg.InputSize)
	}
	n.resetState()
	decayScale(n.theta, n.decayTheta)
	res.Winner = -1
	res.FirstFireTick = 0

	// Gather the active pixels once; typical PATHFINDER inputs are very
	// sparse (a handful of lit pixels out of hundreds).
	active := n.scrActive[:0]
	for i, p := range pixels {
		if p > 0 {
			active = append(active, i)
		}
	}
	n.scrActive = active

	nn := n.cfg.Neurons
	ticks := n.cfg.Ticks
	fp, gain := n.cfg.FireProb, n.cfg.InputGain
	restE, dE := n.cfg.RestE, n.decayE
	restI, dI := n.cfg.RestI, n.decayI
	dX := n.decayTrace
	threshE, resetE := n.cfg.ThreshE, n.cfg.ResetE
	threshI, resetI := n.cfg.ThreshI, n.cfg.ResetI
	inh, exc := n.cfg.Inh, n.cfg.Exc
	// Re-slicing every per-neuron array to [:nn] lets the compiler prove
	// the j < nn loops in bounds and drop the checks.
	vE, vI, xPost := n.vE[:nn], n.vI[:nn], n.xPost[:nn]
	refracE, refracI := n.refracE[:nn], n.refracI[:nn]
	inhHold := n.scrInhHold[:nn]

	// Cache each neuron's effective firing threshold; the sum only
	// changes when a fire bumps theta.
	thr := n.scrThr[:nn]
	for j := 0; j < nn; j++ {
		thr[j] = threshE + n.theta[j]
	}

	// spikedW is the fired-this-tick mask, cleared at word granularity.
	spikedW := n.scrSpikedW
	// firedList accumulates the distinct neurons that fired this interval.
	// A neuron's inhibitory potential, refractory and hold countdowns and
	// post trace leave their rest values (RestI, 0, 0, 0) only once its
	// excitatory partner has fired, so every per-tick pass over that
	// state walks firedList instead of the whole layer: at rest the
	// reference loop's update maps each value to itself exactly. Only
	// these neurons' input weights change too, which lets STDP depression
	// and re-normalisation touch only their columns.
	firedList := n.scrFired[:0]
	// holdCnt is how many inhibitory neurons hold a live suppression
	// countdown, replacing the reference loop's per-tick rescan.
	holdCnt := 0

	// Telemetry accumulators: plain locals flushed once after the loop.
	var mCand, mDep, mPot uint64

	for t := 1; t <= ticks; t++ {
		n.tick++
		// 1. This tick's input spikes: Poisson rate coding, one RNG draw
		// per lit pixel in ascending pixel order — the reference loop's
		// tick-major draw order.
		preSpikes := n.scrPre[:0]
		for _, i := range active {
			if n.rand.float64() < fp*pixels[i] {
				preSpikes = append(preSpikes, i)
			}
		}
		n.scrPre = preSpikes

		// 2. Excitatory layer: leak, integrate, inhibit, fire. The leaks
		// run as per-array passes, which only reorders operations on
		// independent elements — bit-identical. The vI leak runs here
		// rather than in the inhibitory pass, as nothing reads vI in
		// between.
		decayToward(vE, restE, dE)
		for _, j := range firedList {
			xPost[j] *= dX
			vI[j] = restI + (vI[j]-restI)*dI
		}
		spikedW.zero()
		integrate(vE, n.w, nn, gain, preSpikes)
		// Refractory handling, sustained lateral inhibition (from
		// inhibitory neurons that fired within the last InhHold ticks; a
		// neuron is not inhibited by its own partner) and the
		// above-threshold scan, in one pass per neuron. A refractory
		// neuron skips the inhibition the reference loop applies, since
		// its reset overwrites the result; one leaving refractory resets
		// below threshold (New), so it cannot be a candidate.
		cand := n.scrCand[:0]
		for j := 0; j < nn; j++ {
			if refracE[j] > 0 {
				refracE[j]--
				vE[j] = resetE
				continue
			}
			v := vE[j]
			if holdCnt > 0 {
				others := holdCnt
				if inhHold[j] > 0 {
					others--
				}
				v = v - inh*float64(others)
				vE[j] = v
			}
			if v >= thr[j] {
				cand = append(cand, j)
			}
		}
		// Count the holds down after the scan read them.
		for _, j := range firedList {
			if inhHold[j] > 0 {
				if inhHold[j]--; inhHold[j] == 0 {
					holdCnt--
				}
			}
		}
		// Fire, with immediate same-tick lateral inhibition: the neuron
		// with the highest potential fires first and suppresses the rest
		// before they are examined, giving winner-take-all dynamics
		// within a tick. Inhibition is non-negative (New), so each fire
		// can only shrink the candidate set and subsequent iterations
		// filter the survivors instead of rescanning all neurons.
		tickFired := n.scrTickFire[:0]
		mCand += uint64(len(cand))
		for len(cand) > 0 {
			best := cand[0]
			for _, j := range cand[1:] {
				if vE[j] > vE[best] {
					best = j
				}
			}
			spikedW.set(best)
			vE[best] = resetE
			refracE[best] = n.cfg.RefracE
			n.theta[best] += n.cfg.ThetaPlus
			thr[best] = threshE + n.theta[best]
			if n.spikeCounts[best] == 0 {
				firedList = append(firedList, best)
			}
			n.spikeCounts[best]++
			xPost[best] = 1
			tickFired = append(tickFired, best)
			if res.FirstFireTick == 0 {
				res.FirstFireTick = t
			}
			for j := 0; j < nn; j++ {
				if j != best && !spikedW.get(j) {
					vE[j] -= inh
				}
			}
			kept := cand[:0]
			for _, j := range cand {
				if j != best && !spikedW.get(j) && refracE[j] == 0 && vE[j] >= thr[j] {
					kept = append(kept, j)
				}
			}
			cand = kept
		}
		n.scrCand = cand
		n.scrTickFire = tickFired

		// 3. STDP: depress on pre spikes (against post traces), potentiate
		// on post spikes (against pre traces). Post traces are non-zero
		// only for neurons that fired this interval, so depression visits
		// only those columns.
		if learn && len(firedList) > 0 {
			mDep += uint64(len(preSpikes)) * uint64(len(firedList))
			for _, i := range preSpikes {
				row := n.w[i*nn : (i+1)*nn]
				for _, j := range firedList {
					dep := n.cfg.NuPre * xPost[j]
					w := row[j] - dep
					if w < 0 {
						w = 0
					}
					row[j] = w
				}
			}
		}
		// Update pre traces after depression (BindsNet order), lazily.
		for _, i := range preSpikes {
			n.decayPreTrace(i)
			n.xPre[i] = 1
		}
		// Potentiate only this tick's firing neurons. Batched settlement:
		// decayPreTrace is idempotent after its first call in a tick, so
		// every active pre-trace settles once up front instead of once per
		// (pre, post) pair; the weight walk then goes row-major (i outer
		// over active pixels, j inner over this tick's firing neurons) so
		// each touched synapse slab is scanned linearly. Every (i, j)
		// weight is updated exactly once with the same operands as the
		// reference loop's column-major order — bit-identical.
		if learn && len(tickFired) > 0 {
			mPot += uint64(len(tickFired)) * uint64(len(active))
			for _, i := range active {
				n.decayPreTrace(i)
			}
			nuPost, wmax := n.cfg.NuPost, n.cfg.WMax
			for _, i := range active {
				row := n.w[i*nn : i*nn+nn]
				nx := nuPost * n.xPre[i]
				for _, j := range tickFired {
					pot := nx
					w := row[j] + pot
					if w > wmax {
						w = wmax
					}
					row[j] = w
				}
			}
		}

		// 4. Inhibitory layer, driven one-to-one by excitatory spikes; its
		// leak ran in step 2. An inhibitory spike suppresses the other
		// excitatory neurons for the next InhHold ticks.
		for _, j := range firedList {
			if spikedW.get(j) {
				vI[j] += exc
			}
			if refracI[j] > 0 {
				refracI[j]--
				vI[j] = resetI
				continue
			}
			if vI[j] >= threshI {
				vI[j] = resetI
				refracI[j] = n.cfg.RefracI
				if n.cfg.InhHold > inhHold[j] {
					if inhHold[j] == 0 {
						holdCnt++
					}
					inhHold[j] = n.cfg.InhHold
				}
			}
		}

		if n.monitor != nil {
			n.monitor.record(t, vE, spikedW)
		}
	}

	if learn && len(firedList) > 0 {
		n.normalizeNeurons(firedList)
	}
	n.scrFired = firedList

	best := -1
	var mSpikes uint64
	for j, c := range n.spikeCounts {
		mSpikes += uint64(c)
		if c > 0 && (best < 0 || c > n.spikeCounts[best]) {
			best = j
		}
	}
	res.Winner = best
	if cap(res.Spikes) < nn {
		res.Spikes = make([]int, nn)
	}
	res.Spikes = res.Spikes[:nn]
	copy(res.Spikes, n.spikeCounts)
	if m := snnTele.Load(); m != nil {
		m.presents.Inc()
		m.ticks.Add(uint64(ticks))
		m.spikes.Add(mSpikes)
		m.wtaCandidates.Add(mCand)
		m.stdpDepressions.Add(mDep)
		m.stdpPotentiation.Add(mPot)
	}
	if pfdebugEnabled {
		n.debugCheckInterval(ticks)
	}
	return nil
}

// PresentOneTick is the low-cost approximation of §3.4 ("Lowering Time
// Interval"): instead of simulating cfg.Ticks ticks of Poisson input, it
// accumulates the expected input current once and ranks neurons by their
// resulting potential relative to their adaptive threshold. The neuron with
// the highest margin is taken as the one that would have fired first in the
// full interval (Table 1 measures how often this matches). Learning in this
// mode applies the net effect of STDP — potentiation of the winner's active
// synapses — followed by the usual normalisation.
func (n *Network) PresentOneTick(pixels []float64, learn bool) (Result, error) {
	var res Result
	err := n.PresentOneTickInto(&res, pixels, learn)
	return res, err
}

// PresentOneTickInto is PresentOneTick writing into *res, reusing
// res.Spikes like PresentInto does.
func (n *Network) PresentOneTickInto(res *Result, pixels []float64, learn bool) error {
	if len(pixels) != n.cfg.InputSize {
		return fmt.Errorf("snn: input length %d, want %d", len(pixels), n.cfg.InputSize)
	}
	nn := n.cfg.Neurons
	for j := range n.theta {
		n.theta[j] *= n.decayTheta
	}
	best, _ := n.rankOneTick(pixels)
	res.Winner = best
	res.FirstFireTick = 1
	if cap(res.Spikes) < nn {
		res.Spikes = make([]int, nn)
	}
	res.Spikes = res.Spikes[:nn]
	for j := range res.Spikes {
		res.Spikes[j] = 0
	}
	if best >= 0 {
		res.Spikes[best] = 1
	}
	if learn && best >= 0 {
		n.theta[best] += n.cfg.ThetaPlus
		for i, p := range pixels {
			if p <= 0 {
				continue
			}
			idx := i*nn + best
			w := n.w[idx] + n.cfg.NuPost*p
			if w > n.cfg.WMax {
				w = n.cfg.WMax
			}
			n.w[idx] = w
		}
		n.scrCand = append(n.scrCand[:0], best)
		n.normalizeNeurons(n.scrCand)
	}
	if m := snnTele.Load(); m != nil {
		m.oneTickPresents.Inc()
		m.ticks.Inc()
		if best >= 0 {
			m.spikes.Inc()
			if learn {
				var act uint64
				for _, p := range pixels {
					if p > 0 {
						act++
					}
				}
				m.stdpPotentiation.Add(act)
			}
		}
	}
	if pfdebugEnabled {
		// The internal spike accumulator is untouched in 1-tick mode and
		// may hold a previous full interval's counts, hence the Ticks bound.
		n.debugCheckInterval(n.cfg.Ticks)
	}
	return nil
}

// rankOneTick computes the expected single-tick potentials and returns the
// neuron with the highest potential-over-threshold margin. It does not
// mutate network state (beyond the reused scratch the potentials live in).
func (n *Network) rankOneTick(pixels []float64) (best int, pot []float64) {
	nn := n.cfg.Neurons
	pot = n.scrPot[:nn]
	for j := range pot {
		pot[j] = 0
	}
	for i, p := range pixels {
		if p <= 0 {
			continue
		}
		row := n.w[i*nn : (i+1)*nn]
		scale := n.cfg.FireProb * n.cfg.InputGain * p
		for j := 0; j < nn; j++ {
			pot[j] += scale * row[j]
		}
	}
	// The neuron that fires first in the full interval is the one whose
	// potential climbs to its own threshold fastest, so rank by expected
	// charge rate relative to the distance each neuron must climb
	// (threshold range plus its adaptive offset).
	best = -1
	bestRate := math.Inf(-1)
	climb := n.cfg.ThreshE - n.cfg.RestE
	for j := 0; j < nn; j++ {
		rate := pot[j] / (climb + n.theta[j])
		if rate > bestRate {
			bestRate = rate
			best = j
		}
	}
	return best, pot
}

// OneTickWinner returns the neuron the 1-tick approximation would pick for
// the input, without mutating any network state. The Table 1 experiment
// compares this against the full-interval winner.
func (n *Network) OneTickWinner(pixels []float64) (int, error) {
	if len(pixels) != n.cfg.InputSize {
		return -1, fmt.Errorf("snn: input length %d, want %d", len(pixels), n.cfg.InputSize)
	}
	best, _ := n.rankOneTick(pixels)
	return best, nil
}

// Potentials returns a copy of the excitatory membrane potentials.
func (n *Network) Potentials() []float64 {
	out := make([]float64, len(n.vE))
	copy(out, n.vE)
	return out
}

func (n *Network) decayPreTrace(i int) {
	if n.xPreTick[i] <= n.lastReset {
		// Trace last touched in a previous interval: resetState zeroed
		// it (lazily — see lastReset).
		n.xPre[i] = 0
		n.xPreTick[i] = n.tick
		return
	}
	dt := n.tick - n.xPreTick[i]
	if dt > 0 && n.xPre[i] != 0 {
		if dt < len(n.tracePow) {
			n.xPre[i] *= n.tracePow[dt]
		} else {
			n.xPre[i] *= math.Pow(n.decayTrace, float64(dt))
		}
		if n.xPre[i] < 1e-12 {
			n.xPre[i] = 0
		}
	}
	n.xPreTick[i] = n.tick
}

// resetState restores per-sample state (potentials, refractory counters,
// inhibition holds, traces, interval spike counts) while preserving
// weights and thetas. Pre-synaptic traces are not wiped here: bumping
// lastReset makes every xPre whose last touch is at or before it read as
// zero on next access.
func (n *Network) resetState() {
	for j := range n.vE {
		n.vE[j] = n.cfg.RestE
		n.vI[j] = n.cfg.RestI
		n.refracE[j] = 0
		n.refracI[j] = 0
		n.scrInhHold[j] = 0
		n.xPost[j] = 0
		n.spikeCounts[j] = 0
	}
	n.lastReset = n.tick
}

// normalize rescales every excitatory neuron's input weights so they sum to
// cfg.Norm, as the Diehl & Cook model does after every sample.
func (n *Network) normalize() {
	all := make([]int, n.cfg.Neurons)
	for j := range all {
		all[j] = j
	}
	n.normalizeNeurons(all)
}

// normalizeNeurons rescales only the given neurons' input-weight columns.
// Within an interval only firing neurons' weights change, so per-sample
// normalisation needs to touch only those. A single column's sum is a
// serial float64 add chain (each add waits on the previous rounding), so
// the summation pass ladders four, then two, then one column at a time —
// independent accumulators that cover the chain latency. Each column still
// sums in ascending input order (the reference accumulation order) and
// each weight sees the same multiply-and-clamp, so the laddered form is
// bit-identical to normalising column by column.
func (n *Network) normalizeNeurons(neurons []int) {
	nn := n.cfg.Neurons
	in := n.cfg.InputSize
	w := n.w
	k := 0
	for ; k+4 <= len(neurons); k += 4 {
		j0, j1, j2, j3 := neurons[k], neurons[k+1], neurons[k+2], neurons[k+3]
		s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
		for i := 0; i < in; i++ {
			base := i * nn
			s0 += w[base+j0]
			s1 += w[base+j1]
			s2 += w[base+j2]
			s3 += w[base+j3]
		}
		n.scaleColumn(j0, s0)
		n.scaleColumn(j1, s1)
		n.scaleColumn(j2, s2)
		n.scaleColumn(j3, s3)
	}
	for ; k+2 <= len(neurons); k += 2 {
		j0, j1 := neurons[k], neurons[k+1]
		s0, s1 := 0.0, 0.0
		for i := 0; i < in; i++ {
			base := i * nn
			s0 += w[base+j0]
			s1 += w[base+j1]
		}
		n.scaleColumn(j0, s0)
		n.scaleColumn(j1, s1)
	}
	for ; k < len(neurons); k++ {
		j := neurons[k]
		sum := 0.0
		for i := 0; i < in; i++ {
			sum += w[i*nn+j]
		}
		n.scaleColumn(j, sum)
	}
	if pfdebugEnabled {
		n.debugCheckNormalized(neurons)
	}
}

// scaleColumn rescales one input-weight column to make it sum to cfg.Norm,
// clamping to WMax — the apply half of normalizeNeurons. Columns without a
// positive sum are left untouched, exactly as the reference loop skips
// them (a NaN sum fails the comparison and still applies, as it must).
func (n *Network) scaleColumn(j int, sum float64) {
	if sum <= 0 {
		return
	}
	nn := n.cfg.Neurons
	in := n.cfg.InputSize
	scale := n.cfg.Norm / sum
	wmax := n.cfg.WMax
	w := n.w
	for i := 0; i < in; i++ {
		v := w[i*nn+j] * scale
		if v > wmax {
			v = wmax
		}
		w[i*nn+j] = v
	}
}

// Monitor records per-tick excitatory potentials and spikes for
// visualisation (Figure 3) and the §3.6 walkthrough (Table 2). Attaching a
// monitor does not change the simulated dynamics.
type Monitor struct {
	// Ticks holds one snapshot per simulated tick since the monitor was
	// attached.
	Ticks []MonitorTick
}

// MonitorTick is one recorded simulation tick.
type MonitorTick struct {
	// Tick is the tick index within its input interval (1-based).
	Tick int
	// Potentials is the excitatory membrane potential vector.
	Potentials []float64
	// Fired marks the excitatory neurons that spiked this tick.
	Fired []bool
}

// record snapshots tick t's potentials and its fired-this-tick mask.
func (m *Monitor) record(t int, v []float64, fired bitset) {
	vc := make([]float64, len(v))
	copy(vc, v)
	fc := make([]bool, len(v))
	for j := range fc {
		fc[j] = fired.get(j)
	}
	m.Ticks = append(m.Ticks, MonitorTick{Tick: t, Potentials: vc, Fired: fc})
}

// Reset clears all recorded ticks.
func (m *Monitor) Reset() { m.Ticks = nil }
