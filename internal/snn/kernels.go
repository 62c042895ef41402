package snn

// Flat structure-of-arrays kernels for the LIF/STDP inner loops. The tick
// loop in network.go is assembled from these: contiguous float64 vectors
// walked linearly with fixed unrolling, and a bitset mask for the neurons
// fired this tick. Every kernel preserves the exact
// per-element floating-point operation sequence of the reference per-tick
// loop (internal/refmodel): unrolling and loop-order changes only ever
// reorder operations on *independent* elements, never the operation chain
// applied to a single element. That accumulation-order contract is what
// keeps the golden FNV hashes, the refmodel differential oracle and the
// serialized-state fixtures valid across kernel rewrites — see
// docs/snn-math.md for the contract and docs/performance.md for the
// hot-path map.

// bitset is a fixed-capacity bitmask over neuron indices. Word granularity
// is what the tick loop batches on: clearing a 50-neuron fired mask is one
// store instead of fifty.
type bitset []uint64

// newBitset returns a bitset able to hold n bits.
func newBitset(n int) bitset { return make(bitset, (n+63)>>6) }

func (b bitset) set(j int)      { b[uint(j)>>6] |= 1 << (uint(j) & 63) }
func (b bitset) get(j int) bool { return b[uint(j)>>6]>>(uint(j)&63)&1 != 0 }

// zero clears every bit.
func (b bitset) zero() {
	for i := range b {
		b[i] = 0
	}
}

// decayToward applies one exponential-decay step towards rest to every
// element: v[j] = rest + (v[j]-rest)*d. The expression shape matches the
// reference loop exactly (same rounding on every target, including
// platforms that fuse multiply-add), and elements are independent, so the
// 4-way unroll is bit-identical.
func decayToward(v []float64, rest, d float64) {
	j := 0
	for ; j+4 <= len(v); j += 4 {
		v[j] = rest + (v[j]-rest)*d
		v[j+1] = rest + (v[j+1]-rest)*d
		v[j+2] = rest + (v[j+2]-rest)*d
		v[j+3] = rest + (v[j+3]-rest)*d
	}
	for ; j < len(v); j++ {
		v[j] = rest + (v[j]-rest)*d
	}
}

// decayScale applies one multiplicative decay step to every element:
// x[j] *= d. Elements are independent; the unroll is bit-identical.
func decayScale(x []float64, d float64) {
	j := 0
	for ; j+4 <= len(x); j += 4 {
		x[j] *= d
		x[j+1] *= d
		x[j+2] *= d
		x[j+3] *= d
	}
	for ; j < len(x); j++ {
		x[j] *= d
	}
}

// integrate adds each spiking pixel's weight row into vE: one
// vE[j] += gain*row[j] per (spike, neuron) pair, in spike order per
// element — the accumulation order the reference loop uses. Rows are
// walked linearly (they are contiguous row-major slabs of the weight
// matrix) and processed in pairs, so each vE element is loaded and stored
// once per two spikes; the two adds per element still happen in spike
// order, so the per-element FP sequence is unchanged.
func integrate(vE []float64, w []float64, nn int, gain float64, spikes []int) {
	k := 0
	for ; k+2 <= len(spikes); k += 2 {
		a := w[spikes[k]*nn : spikes[k]*nn+nn]
		b := w[spikes[k+1]*nn : spikes[k+1]*nn+nn]
		j := 0
		for ; j+2 <= nn; j += 2 {
			v0 := vE[j] + gain*a[j]
			v0 = v0 + gain*b[j]
			v1 := vE[j+1] + gain*a[j+1]
			v1 = v1 + gain*b[j+1]
			vE[j] = v0
			vE[j+1] = v1
		}
		for ; j < nn; j++ {
			v := vE[j] + gain*a[j]
			vE[j] = v + gain*b[j]
		}
	}
	for ; k < len(spikes); k++ {
		row := w[spikes[k]*nn : spikes[k]*nn+nn]
		j := 0
		for ; j+4 <= nn; j += 4 {
			vE[j] += gain * row[j]
			vE[j+1] += gain * row[j+1]
			vE[j+2] += gain * row[j+2]
			vE[j+3] += gain * row[j+3]
		}
		for ; j < nn; j++ {
			vE[j] += gain * row[j]
		}
	}
}
