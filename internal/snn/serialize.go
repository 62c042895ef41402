package snn

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Serialization lets a trained network be saved and restored — the
// software analogue of persisting the weight buffers and theta registers
// of §3.5's hardware across power states, and the practical way to ship a
// pre-warmed prefetcher. Only learned state (weights, adaptive thresholds)
// and the configuration are stored; per-interval state (potentials,
// traces) is transient by design and resets every sample anyway. The
// engine's scratch buffers and derived state (scr*, tracePow — see
// network.go) are likewise never serialized: LoadNetwork rebuilds them
// through New from the stored configuration, which also validates it.
//
// The SNN1 layout keeps two integer slots (7 and 8) that once held the
// weight-dependent-STDP and temporal-coding switches. Save writes 0 into
// both and LoadNetwork rejects a file that sets either.

var snnMagic = [4]byte{'S', 'N', 'N', '1'}

// Sanity caps on a decoded configuration, checked before any allocation:
// a corrupt or hostile file must fail with an error, never an OOM. They
// sit far above every configuration the paper sweeps (Table 4 uses 50
// neurons over a few-hundred-row input).
const (
	maxLoadNeurons   = 1 << 14
	maxLoadInputSize = 1 << 18
	maxLoadSynapses  = 1 << 24
	// maxLoadMagnitude bounds every floating-point parameter (Table 4's
	// largest is TCTheta = 1e4), so no product of a few of them overflows.
	maxLoadMagnitude = 1e9
)

// Save writes the network's configuration and learned state to w.
func (n *Network) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snnMagic[:]); err != nil {
		return err
	}
	// Configuration, fixed-order; the last two slots are retired.
	ints := []int64{
		int64(n.cfg.InputSize), int64(n.cfg.Neurons), int64(n.cfg.InhHold),
		int64(n.cfg.Ticks), int64(n.cfg.RefracE), int64(n.cfg.RefracI),
		n.cfg.Seed, 0, 0,
	}
	floats := []float64{
		n.cfg.Exc, n.cfg.Inh, n.cfg.Norm, n.cfg.ThetaPlus, n.cfg.TCTheta,
		n.cfg.FireProb, n.cfg.InputGain, n.cfg.NuPre, n.cfg.NuPost,
		n.cfg.WMax, n.cfg.TraceTC,
		n.cfg.RestE, n.cfg.ResetE, n.cfg.ThreshE, n.cfg.TCDecayE,
		n.cfg.RestI, n.cfg.ResetI, n.cfg.ThreshI, n.cfg.TCDecayI,
	}
	for _, v := range ints {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, v := range floats {
		if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(v)); err != nil {
			return err
		}
	}
	// Learned state.
	for _, v := range n.w {
		if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(v)); err != nil {
			return err
		}
	}
	for _, v := range n.theta {
		if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(v)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadNetwork reads a network previously written by Save. The restored
// network resumes learning and inference exactly where the saved one
// stopped (up to the per-sample transient state, which resets anyway).
func LoadNetwork(r io.Reader) (*Network, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("snn: reading magic: %w", err)
	}
	if m != snnMagic {
		return nil, errors.New("snn: bad magic; not an SNN1 file")
	}
	var ints [9]int64
	for i := range ints {
		if err := binary.Read(br, binary.LittleEndian, &ints[i]); err != nil {
			return nil, fmt.Errorf("snn: reading config: %w", err)
		}
	}
	var fbits [19]uint64
	for i := range fbits {
		if err := binary.Read(br, binary.LittleEndian, &fbits[i]); err != nil {
			return nil, fmt.Errorf("snn: reading config: %w", err)
		}
	}
	if ints[0] <= 0 || ints[0] > maxLoadInputSize || ints[1] <= 0 || ints[1] > maxLoadNeurons {
		return nil, fmt.Errorf("snn: implausible dimensions in file (input %d, neurons %d)", ints[0], ints[1])
	}
	if ints[0]*ints[1] > maxLoadSynapses {
		return nil, fmt.Errorf("snn: implausible weight matrix in file (%d x %d)", ints[0], ints[1])
	}
	if ints[3] <= 0 || ints[3] > 1<<12 {
		return nil, fmt.Errorf("snn: implausible tick count %d in file", ints[3])
	}
	if ints[7] != 0 {
		return nil, fmt.Errorf("snn: file sets the retired weight-dependent STDP flag (%d)", ints[7])
	}
	if ints[8] != 0 {
		return nil, fmt.Errorf("snn: file sets the retired temporal coding flag (%d)", ints[8])
	}
	f := func(i int) float64 { return math.Float64frombits(fbits[i]) }
	for i := range fbits {
		if v := f(i); !(math.Abs(v) <= maxLoadMagnitude) {
			return nil, fmt.Errorf("snn: implausible configuration value %v in file (field %d)", v, i)
		}
	}
	cfg := Config{
		InputSize: int(ints[0]), Neurons: int(ints[1]), InhHold: int(ints[2]),
		Ticks: int(ints[3]), RefracE: int(ints[4]), RefracI: int(ints[5]), Seed: ints[6],
		Exc: f(0), Inh: f(1), Norm: f(2), ThetaPlus: f(3), TCTheta: f(4),
		FireProb: f(5), InputGain: f(6), NuPre: f(7), NuPost: f(8),
		WMax: f(9), TraceTC: f(10),
		RestE: f(11), ResetE: f(12), ThreshE: f(13), TCDecayE: f(14),
		RestI: f(15), ResetI: f(16), ThreshI: f(17), TCDecayI: f(18),
	}
	// New rejects a configuration outside the engine's region, so
	// construction and loading share one validation.
	n, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("snn: restoring: %w", err)
	}
	// The learned state must lie where the engine keeps it: weights in
	// [0, WMax] and thresholds finite and non-negative.
	for i := range n.w {
		var bits uint64
		if err := binary.Read(br, binary.LittleEndian, &bits); err != nil {
			return nil, fmt.Errorf("snn: reading weights: %w", err)
		}
		w := math.Float64frombits(bits)
		if !(w >= 0 && w <= cfg.WMax) {
			return nil, fmt.Errorf("snn: weight %d is %v, outside [0, %v]", i, w, cfg.WMax)
		}
		n.w[i] = w
	}
	for i := range n.theta {
		var bits uint64
		if err := binary.Read(br, binary.LittleEndian, &bits); err != nil {
			return nil, fmt.Errorf("snn: reading thetas: %w", err)
		}
		th := math.Float64frombits(bits)
		if !(th >= 0) || math.IsInf(th, 0) {
			return nil, fmt.Errorf("snn: threshold %d is %v", i, th)
		}
		n.theta[i] = th
	}
	return n, nil
}
