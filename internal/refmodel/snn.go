package refmodel

import (
	"fmt"
	"math"

	"pathfinder/internal/snn"
)

// SNN is the reference Diehl & Cook network: the straightforward per-tick
// LIF/STDP loop the event-driven engine in internal/snn replaced. It shares
// snn.Config and snn.Result and presents the same Present/PresentOneTick
// API, so the differential harness can drive both networks through
// identical call sequences. Every loop below does the obvious thing, one
// tick at a time, allocating freely; bit-identity to internal/snn is the
// property under test, not a coincidence.
type SNN struct {
	cfg snn.Config

	w     []float64 // input→excitatory weights, row-major [input][neuron]
	theta []float64 // adaptive threshold offsets

	vE      []float64
	vI      []float64
	refracE []int
	refracI []int

	xPre     []float64
	xPreTick []int
	xPost    []float64

	decayE, decayI, decayTrace, decayTheta float64

	rand *rng

	spikeCounts []int
	tick        int
}

// NewSNN constructs a reference network. It mirrors snn.New exactly,
// including the RNG draw order of the weight initialisation, so a reference
// and an optimized network built from the same config start bit-identical.
func NewSNN(cfg snn.Config) (*SNN, error) {
	if cfg.InputSize <= 0 || cfg.Neurons <= 0 {
		return nil, fmt.Errorf("refmodel: input size %d and neurons %d must be positive", cfg.InputSize, cfg.Neurons)
	}
	if cfg.Ticks <= 0 {
		return nil, fmt.Errorf("refmodel: ticks %d must be positive", cfg.Ticks)
	}
	if cfg.FireProb <= 0 || cfg.FireProb > 1 {
		return nil, fmt.Errorf("refmodel: fire probability %v outside (0, 1]", cfg.FireProb)
	}
	if cfg.InputGain <= 0 {
		return nil, fmt.Errorf("refmodel: input gain %v must be positive", cfg.InputGain)
	}
	n := &SNN{
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
	}
	if cfg.TCTheta > 0 {
		n.decayTheta = math.Exp(-float64(cfg.Ticks) / cfg.TCTheta)
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

// Config returns the network's configuration.
func (n *SNN) Config() snn.Config { return n.cfg }

// Weight returns the weight between input i and excitatory neuron j.
func (n *SNN) Weight(i, j int) float64 { return n.w[i*n.cfg.Neurons+j] }

// Theta returns neuron j's adaptive threshold offset.
func (n *SNN) Theta(j int) float64 { return n.theta[j] }

// Potentials returns a copy of the excitatory membrane potentials.
func (n *SNN) Potentials() []float64 {
	out := make([]float64, len(n.vE))
	copy(out, n.vE)
	return out
}

// InhPotentials returns a copy of the inhibitory membrane potentials (the
// optimized engine does not export these; the harness compares them through
// the spike trains they produce).
func (n *SNN) InhPotentials() []float64 {
	out := make([]float64, len(n.vI))
	copy(out, n.vI)
	return out
}

// Present runs one input interval of cfg.Ticks ticks, tick by tick, with no
// event-driven shortcuts: every tick decays every potential, draws every
// Poisson sample, scans every neuron for threshold crossings, and applies
// STDP in the BindsNet order. Semantics are documented on snn.Present.
func (n *SNN) Present(pixels []float64, learn bool) (snn.Result, error) {
	if len(pixels) != n.cfg.InputSize {
		return snn.Result{}, fmt.Errorf("refmodel: input length %d, want %d", len(pixels), n.cfg.InputSize)
	}
	n.resetState()
	for j := range n.theta {
		n.theta[j] *= n.decayTheta
	}

	active := make([]int, 0, 32)
	for i, p := range pixels {
		if p > 0 {
			active = append(active, i)
		}
	}

	res := snn.Result{Winner: -1}
	inhHold := make([]int, n.cfg.Neurons)
	excSpiked := make([]bool, n.cfg.Neurons)
	preSpikes := make([]int, 0, len(active))
	// firedList accumulates the distinct neurons that fired this interval,
	// in first-fire order — the order STDP depression and normalisation
	// visit their columns in.
	firedList := make([]int, 0, 8)

	for t := 1; t <= n.cfg.Ticks; t++ {
		n.tick++
		// 1. Input spikes for this tick: Poisson rate coding, one RNG
		// draw per active pixel, in ascending pixel order.
		preSpikes = preSpikes[:0]
		for _, i := range active {
			if n.rand.float64() < n.cfg.FireProb*pixels[i] {
				preSpikes = append(preSpikes, i)
			}
		}

		// 2. Excitatory layer: leak, integrate, inhibit, fire.
		nn := n.cfg.Neurons
		for j := 0; j < nn; j++ {
			n.vE[j] = n.cfg.RestE + (n.vE[j]-n.cfg.RestE)*n.decayE
			n.xPost[j] *= n.decayTrace
		}
		gain := n.cfg.InputGain
		for _, i := range preSpikes {
			row := n.w[i*nn : (i+1)*nn]
			for j := 0; j < nn; j++ {
				n.vE[j] += gain * row[j]
			}
		}
		// Sustained lateral inhibition from inhibitory neurons that fired
		// within the last InhHold ticks (a neuron is not inhibited by its
		// own partner).
		holdCount := 0
		for k := 0; k < nn; k++ {
			if inhHold[k] > 0 {
				holdCount++
			}
		}
		if holdCount > 0 {
			for j := 0; j < nn; j++ {
				others := holdCount
				if inhHold[j] > 0 {
					others--
				}
				n.vE[j] -= n.cfg.Inh * float64(others)
			}
		}
		for k := 0; k < nn; k++ {
			if inhHold[k] > 0 {
				inhHold[k]--
			}
		}
		for j := 0; j < nn; j++ {
			excSpiked[j] = false
			if n.refracE[j] > 0 {
				n.refracE[j]--
				n.vE[j] = n.cfg.ResetE
			}
		}
		// Winner-take-all fire loop with immediate same-tick inhibition.
		for {
			best := -1
			for j := 0; j < nn; j++ {
				if excSpiked[j] || n.refracE[j] > 0 {
					continue
				}
				if n.vE[j] >= n.cfg.ThreshE+n.theta[j] {
					if best < 0 || n.vE[j] > n.vE[best] {
						best = j
					}
				}
			}
			if best < 0 {
				break
			}
			excSpiked[best] = true
			n.vE[best] = n.cfg.ResetE
			n.refracE[best] = n.cfg.RefracE
			n.theta[best] += n.cfg.ThetaPlus
			if n.spikeCounts[best] == 0 {
				firedList = append(firedList, best)
			}
			n.spikeCounts[best]++
			n.xPost[best] = 1
			if res.FirstFireTick == 0 {
				res.FirstFireTick = t
			}
			for j := 0; j < nn; j++ {
				if j != best && !excSpiked[j] {
					n.vE[j] -= n.cfg.Inh
				}
			}
		}

		// 3. Additive STDP: depress on pre spikes (against post traces),
		// potentiate on post spikes (against pre traces).
		if learn && len(firedList) > 0 {
			for _, i := range preSpikes {
				row := n.w[i*nn : (i+1)*nn]
				for _, j := range firedList {
					dep := n.cfg.NuPre * n.xPost[j]
					w := row[j] - dep
					if w < 0 {
						w = 0
					}
					row[j] = w
				}
			}
		}
		for _, i := range preSpikes {
			n.decayPreTrace(i)
			n.xPre[i] = 1
		}
		if learn {
			for j := 0; j < nn; j++ {
				if !excSpiked[j] {
					continue
				}
				for _, i := range active {
					n.decayPreTrace(i)
					idx := i*nn + j
					pot := n.cfg.NuPost * n.xPre[i]
					w := n.w[idx] + pot
					if w > n.cfg.WMax {
						w = n.cfg.WMax
					}
					n.w[idx] = w
				}
			}
		}

		// 4. Inhibitory layer, driven one-to-one by excitatory spikes.
		for j := 0; j < nn; j++ {
			n.vI[j] = n.cfg.RestI + (n.vI[j]-n.cfg.RestI)*n.decayI
			if excSpiked[j] {
				n.vI[j] += n.cfg.Exc
			}
			if n.refracI[j] > 0 {
				n.refracI[j]--
				n.vI[j] = n.cfg.ResetI
				continue
			}
			if n.vI[j] >= n.cfg.ThreshI {
				n.vI[j] = n.cfg.ResetI
				n.refracI[j] = n.cfg.RefracI
				if n.cfg.InhHold > inhHold[j] {
					inhHold[j] = n.cfg.InhHold
				}
			}
		}
	}

	if learn && len(firedList) > 0 {
		n.normalizeNeurons(firedList)
	}

	best := -1
	for j, c := range n.spikeCounts {
		if c > 0 && (best < 0 || c > n.spikeCounts[best]) {
			best = j
		}
	}
	res.Winner = best
	out := make([]int, len(n.spikeCounts))
	copy(out, n.spikeCounts)
	res.Spikes = out
	return res, nil
}

// PresentOneTick is the reference form of the §3.4 1-tick approximation;
// see snn.PresentOneTick.
func (n *SNN) PresentOneTick(pixels []float64, learn bool) (snn.Result, error) {
	if len(pixels) != n.cfg.InputSize {
		return snn.Result{}, fmt.Errorf("refmodel: input length %d, want %d", len(pixels), n.cfg.InputSize)
	}
	nn := n.cfg.Neurons
	for j := range n.theta {
		n.theta[j] *= n.decayTheta
	}
	best := n.rankOneTick(pixels)
	res := snn.Result{Spikes: make([]int, nn), Winner: best, FirstFireTick: 1}
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
		n.normalizeNeurons([]int{best})
	}
	return res, nil
}

// rankOneTick mirrors snn's expected-potential ranking without mutating
// network state.
func (n *SNN) rankOneTick(pixels []float64) int {
	nn := n.cfg.Neurons
	pot := make([]float64, nn)
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
	best := -1
	bestRate := math.Inf(-1)
	climb := n.cfg.ThreshE - n.cfg.RestE
	for j := 0; j < nn; j++ {
		rate := pot[j] / (climb + n.theta[j])
		if rate > bestRate {
			bestRate = rate
			best = j
		}
	}
	return best
}

func (n *SNN) decayPreTrace(i int) {
	dt := n.tick - n.xPreTick[i]
	if dt > 0 && n.xPre[i] != 0 {
		n.xPre[i] *= math.Pow(n.decayTrace, float64(dt))
		if n.xPre[i] < 1e-12 {
			n.xPre[i] = 0
		}
	}
	n.xPreTick[i] = n.tick
}

func (n *SNN) resetState() {
	for j := range n.vE {
		n.vE[j] = n.cfg.RestE
		n.vI[j] = n.cfg.RestI
		n.refracE[j] = 0
		n.refracI[j] = 0
		n.xPost[j] = 0
		n.spikeCounts[j] = 0
	}
	for i := range n.xPre {
		n.xPre[i] = 0
		n.xPreTick[i] = n.tick
	}
}

func (n *SNN) normalize() {
	all := make([]int, n.cfg.Neurons)
	for j := range all {
		all[j] = j
	}
	n.normalizeNeurons(all)
}

func (n *SNN) normalizeNeurons(neurons []int) {
	nn := n.cfg.Neurons
	for _, j := range neurons {
		sum := 0.0
		for i := 0; i < n.cfg.InputSize; i++ {
			sum += n.w[i*nn+j]
		}
		if sum <= 0 {
			continue
		}
		scale := n.cfg.Norm / sum
		for i := 0; i < n.cfg.InputSize; i++ {
			w := n.w[i*nn+j] * scale
			if w > n.cfg.WMax {
				w = n.cfg.WMax
			}
			n.w[i*nn+j] = w
		}
	}
}
