// Package core implements the PATHFINDER prefetcher of §3: a delta-history
// encoder that turns per-page access patterns into Memory Access Pixel
// Matrices, a spiking neural network that learns to recognise those
// patterns on-line via STDP, and the Training/Inference tables that label
// firing neurons with next-delta predictions and track their confidence.
package core

import "fmt"

// Encoder turns a delta history into the flattened Memory Access Pixel
// Matrix fed to the SNN (§3.2): an H×D binary image where row r lights the
// column of the r-th delta in the history.
type Encoder struct {
	// D is the delta-range width (number of columns); it must be odd so
	// deltas -C..+C with C = (D-1)/2 map onto columns 0..D-1.
	D int
	// H is the history length (number of rows).
	H int
	// Enlarged lights each pixel's four neighbours as well, at
	// neighborIntensity, countering input sparsity (§3.4 "Enlarged Pixel
	// in Input Pixel Matrix").
	Enlarged bool
	// MiddleShift rotates the middle row's column by a fixed constant,
	// the first anti-aliasing measure of §3.4 ("we shift the middle delta
	// in the delta pattern by a fixed constant"). Zero disables it.
	MiddleShift int
	// Reorder applies a fixed column permutation after enlargement (the
	// "reordered input pixels" variant of Figure 9). Adjacent deltas —
	// whose enlarged halos otherwise overlap and alias distinct histories
	// onto the same firing neuron — land far apart after the permutation,
	// while each delta still lights its full five-pixel group.
	Reorder bool

	perm []int // lazily built column permutation
}

// neighborIntensity is the brightness of an enlarged pixel's four
// neighbours relative to the centre. Full-intensity neighbours make
// adjacent delta histories — e.g. the rotations of one pattern — nearly
// indistinguishable, the aliasing problem §3.4 describes; dimmer
// neighbours keep the firing-rate boost while preserving separability.
const neighborIntensity = 0.35

// NewEncoder returns an encoder for the given delta range and history
// length.
func NewEncoder(d, h int) (*Encoder, error) {
	if d < 3 || d%2 == 0 {
		return nil, fmt.Errorf("core: delta range %d must be odd and >= 3", d)
	}
	if h < 1 {
		return nil, fmt.Errorf("core: history length %d must be >= 1", h)
	}
	return &Encoder{D: d, H: h}, nil
}

// Center returns the column index of delta zero.
func (e *Encoder) Center() int { return (e.D - 1) / 2 }

// MaxDelta returns the largest encodable |delta|.
func (e *Encoder) MaxDelta() int { return (e.D - 1) / 2 }

// InputSize returns the flattened matrix length, D × H.
func (e *Encoder) InputSize() int { return e.D * e.H }

// InRange reports whether a delta is encodable at this range. Deltas
// outside the range cannot be represented — the coverage cost of small
// delta ranges that Figure 5/Table 7 quantify.
func (e *Encoder) InRange(delta int) bool {
	return delta >= -e.MaxDelta() && delta <= e.MaxDelta()
}

// Encode writes the pixel matrix for the given delta history into out,
// which must have length InputSize(). deltas must have length H; every
// delta must be in range (check InRange first). The oldest delta occupies
// row 0.
func (e *Encoder) Encode(deltas []int, out []float64) error {
	if len(deltas) != e.H {
		return fmt.Errorf("core: history length %d, want %d", len(deltas), e.H)
	}
	if len(out) != e.InputSize() {
		return fmt.Errorf("core: output length %d, want %d", len(out), e.InputSize())
	}
	for i := range out {
		out[i] = 0
	}
	mid := e.H / 2
	for row, d := range deltas {
		if !e.InRange(d) {
			return fmt.Errorf("core: delta %d out of range ±%d", d, e.MaxDelta())
		}
		col := d + e.Center()
		if e.MiddleShift != 0 && row == mid {
			col = (col + e.MiddleShift) % e.D
			if col < 0 {
				col += e.D
			}
		}
		e.light(out, row, col, 1)
		if e.Enlarged {
			if col > 0 {
				e.light(out, row, col-1, neighborIntensity)
			}
			if col < e.D-1 {
				e.light(out, row, col+1, neighborIntensity)
			}
			if row > 0 {
				e.light(out, row-1, col, neighborIntensity)
			}
			if row < e.H-1 {
				e.light(out, row+1, col, neighborIntensity)
			}
		}
	}
	return nil
}

// light raises a pixel to at least the given intensity (overlapping
// contributions keep the maximum, so a centre pixel is never dimmed by a
// neighbouring delta's halo). With Reorder, the column is remapped through
// the fixed permutation.
func (e *Encoder) light(out []float64, row, col int, intensity float64) {
	if e.Reorder {
		col = e.permutation()[col]
	}
	if out[row*e.D+col] < intensity {
		out[row*e.D+col] = intensity
	}
}

// permutation returns the column permutation col -> (col*K) mod D for a
// multiplier K coprime with D, built on first use.
func (e *Encoder) permutation() []int {
	if e.perm != nil {
		return e.perm
	}
	k := 29
	for gcd(k, e.D) != 1 {
		k += 2
	}
	e.perm = make([]int, e.D)
	for c := 0; c < e.D; c++ {
		e.perm[c] = c * k % e.D
	}
	return e.perm
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
