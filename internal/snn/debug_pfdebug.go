//go:build pfdebug

package snn

import (
	"fmt"
	"math"
)

// pfdebug build: the engine self-checks its structural invariants after
// every presented interval and every weight normalisation, panicking with a
// description on the first violation. These are the properties the
// event-driven fast paths rely on; see docs/testing.md.
const pfdebugEnabled = true

// debugCheckInterval runs after a presentation. maxSpikes is the most times
// any single neuron can have fired (one per tick for a full interval, one
// for the 1-tick approximation).
func (n *Network) debugCheckInterval(maxSpikes int) {
	cfg := n.cfg
	// Membrane, trace and theta decay factors must be genuine decays
	// (finite, in (0, 1]) whenever their time constants are sane;
	// otherwise the quiescence fast-forward's fixed-point reasoning and
	// the lazy trace resets are unsound.
	checkDecay := func(name string, tc, d float64) {
		if tc > 0 && !(d > 0 && d <= 1) {
			panic(fmt.Sprintf("snn pfdebug: %s decay %v outside (0,1] (tc %v)", name, d, tc))
		}
	}
	checkDecay("excitatory", cfg.TCDecayE, n.decayE)
	checkDecay("inhibitory", cfg.TCDecayI, n.decayI)
	checkDecay("trace", cfg.TraceTC, n.decayTrace)
	checkDecay("theta", cfg.TCTheta, n.decayTheta)

	for j := 0; j < cfg.Neurons; j++ {
		if math.IsNaN(n.vE[j]) || math.IsInf(n.vE[j], 0) {
			panic(fmt.Sprintf("snn pfdebug: vE[%d] = %v not finite", j, n.vE[j]))
		}
		if math.IsNaN(n.vI[j]) || math.IsInf(n.vI[j], 0) {
			panic(fmt.Sprintf("snn pfdebug: vI[%d] = %v not finite", j, n.vI[j]))
		}
		if n.refracE[j] < 0 || (cfg.RefracE >= 0 && n.refracE[j] > cfg.RefracE) {
			panic(fmt.Sprintf("snn pfdebug: refracE[%d] = %d outside [0, %d]", j, n.refracE[j], cfg.RefracE))
		}
		if n.refracI[j] < 0 || (cfg.RefracI >= 0 && n.refracI[j] > cfg.RefracI) {
			panic(fmt.Sprintf("snn pfdebug: refracI[%d] = %d outside [0, %d]", j, n.refracI[j], cfg.RefracI))
		}
		if !(n.theta[j] >= 0) {
			panic(fmt.Sprintf("snn pfdebug: theta[%d] = %v negative or NaN", j, n.theta[j]))
		}
		if n.spikeCounts[j] < 0 || n.spikeCounts[j] > maxSpikes {
			panic(fmt.Sprintf("snn pfdebug: spikeCounts[%d] = %d outside [0, %d]", j, n.spikeCounts[j], maxSpikes))
		}
		if h := n.scrInhHold[j]; h < 0 || (cfg.InhHold >= 0 && h > cfg.InhHold) {
			panic(fmt.Sprintf("snn pfdebug: inhHold[%d] = %d outside [0, %d]", j, h, cfg.InhHold))
		}
		if n.xPost[j] < 0 || n.xPost[j] > 1 {
			panic(fmt.Sprintf("snn pfdebug: xPost[%d] = %v outside [0, 1]", j, n.xPost[j]))
		}
	}
	for i := range n.w {
		if w := n.w[i]; !(w >= 0 && w <= cfg.WMax) {
			panic(fmt.Sprintf("snn pfdebug: w[%d] = %v outside [0, %v]", i, w, cfg.WMax))
		}
	}
}

// debugCheckNormalized runs after normalizeNeurons rescaled the given
// neurons' input-weight columns: each column must now sum to cfg.Norm
// unless the WMax clamp bit into it (then the sum may only fall short) or
// the column was all-zero (normalisation skips it).
func (n *Network) debugCheckNormalized(neurons []int) {
	nn := n.cfg.Neurons
	tol := 1e-9 * math.Max(1, math.Abs(n.cfg.Norm))
	for _, j := range neurons {
		sum, clamped := 0.0, false
		for i := 0; i < n.cfg.InputSize; i++ {
			w := n.w[i*nn+j]
			sum += w
			if w == n.cfg.WMax {
				clamped = true
			}
		}
		switch {
		case sum == 0: // all-zero column: normalisation has nothing to scale
		case clamped:
			if sum > n.cfg.Norm+tol {
				panic(fmt.Sprintf("snn pfdebug: neuron %d weight sum %v exceeds Norm %v despite WMax clamp", j, sum, n.cfg.Norm))
			}
		default:
			if math.Abs(sum-n.cfg.Norm) > tol {
				panic(fmt.Sprintf("snn pfdebug: neuron %d weight sum %v, want Norm %v (|diff| %g > tol %g)", j, sum, n.cfg.Norm, math.Abs(sum-n.cfg.Norm), tol))
			}
		}
	}
}
