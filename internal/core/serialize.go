package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"pathfinder/internal/snn"
)

// Serialization persists a trained PATHFINDER: the SNN's learned weights
// and thresholds plus the Inference Table's labels and confidences. The
// Training Table is deliberately not persisted — it tracks transient
// per-(PC, page) delta histories that are meaningless across runs; a
// restored prefetcher simply re-warms it within a few accesses per page,
// the same way the hardware behaves after a context switch.

var pfMagic = [4]byte{'P', 'F', 'S', '1'}

// PFS1 keeps five configuration slots whose settings are now fixed parts of
// the datapath: the confidence threshold (int 7), the weight-dependent
// STDP and temporal coding flags (ints 18 and 20), the enlarged-pixel
// intensity (float 0) and the multi-fire inhibition scale (float 1). Save
// writes into them what the configuration that still had those fields
// wrote by default, and load refuses a file holding anything else.
var retiredInts = [...]struct {
	slot int
	name string
	want int64
}{
	{7, "confidence threshold", confThreshold},
	{18, "weight-dependent STDP flag", 0},
	{20, "temporal coding flag", 0},
}

var retiredFloats = [...]struct {
	name string
	want float64
}{
	{"enlarged-pixel intensity", 0},
	{"multi-fire inhibition scale", multiFireInhibition},
}

// Sanity caps on a decoded configuration, checked before any allocation:
// a corrupt or hostile file must fail with an error, never an OOM. They
// sit far above every configuration the paper sweeps (delta range ±63,
// 50-400 neurons, 1-4 labels per neuron).
const (
	maxLoadDeltaRange = 1 << 12
	maxLoadHistory    = 64
	maxLoadNeurons    = 1 << 14
	maxLoadLabels     = 1 << 10
	maxLoadLabelCells = 1 << 20
	maxLoadTableSize  = 1 << 20
	maxLoadDegree     = 1 << 8
	maxLoadTicks      = 1 << 12
	// The SNN's weight matrix is (DeltaRange × History) × Neurons; the
	// individual caps above still admit a multi-gigabyte product, so the
	// derived synapse count is capped too (mirroring snn.maxLoadSynapses).
	maxLoadSynapses = 1 << 24
)

// Save writes the prefetcher's learned state to w.
func (p *Pathfinder) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(pfMagic[:]); err != nil {
		return err
	}
	// The configuration, fixed-order (see load); the zeros mark the
	// retired slots, which retiredInts fills.
	ints := []int64{
		int64(p.cfg.DeltaRange), int64(p.cfg.History), int64(p.cfg.Neurons),
		int64(p.cfg.LabelsPerNeuron), int64(p.cfg.Degree), int64(p.cfg.Ticks),
		int64(p.cfg.MiddleShift), 0,
		int64(p.cfg.TrainingTableSize), int64(p.cfg.STDPOn), int64(p.cfg.STDPPeriod),
		p.cfg.Seed,
		boolInt(p.cfg.OneTick), boolInt(p.cfg.Enlarged), boolInt(p.cfg.Reorder),
		boolInt(p.cfg.ColdPage), boolInt(p.cfg.MultiFire), boolInt(p.cfg.CompareOneTick),
		0,
		int64(p.cfg.Inputs),
		0,
	}
	for _, r := range retiredInts {
		ints[r.slot] = r.want
	}
	for _, v := range ints {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, r := range retiredFloats {
		if err := binary.Write(bw, binary.LittleEndian, r.want); err != nil {
			return err
		}
	}
	// Inference table labels.
	for n := 0; n < p.cfg.Neurons; n++ {
		for _, l := range p.it.labels[n] {
			if err := binary.Write(bw, binary.LittleEndian, int32(l.Delta)); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, l.Conf); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// The SNN appends its own container.
	return p.net.Save(w)
}

// Load restores a prefetcher previously written by Save.
func Load(r io.Reader) (*Pathfinder, error) {
	return load(bufio.NewReader(r))
}

func load(br *bufio.Reader) (*Pathfinder, error) {
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", err)
	}
	if m != pfMagic {
		return nil, errors.New("core: bad magic; not a PFS1 file")
	}
	var ints [21]int64
	for i := range ints {
		if err := binary.Read(br, binary.LittleEndian, &ints[i]); err != nil {
			return nil, fmt.Errorf("core: reading config: %w", err)
		}
	}
	var floats [2]float64
	for i := range floats {
		if err := binary.Read(br, binary.LittleEndian, &floats[i]); err != nil {
			return nil, fmt.Errorf("core: reading config: %w", err)
		}
	}
	switch {
	case ints[0] < 0 || ints[0] > maxLoadDeltaRange,
		ints[1] < 0 || ints[1] > maxLoadHistory,
		ints[2] < 0 || ints[2] > maxLoadNeurons,
		ints[3] < 1 || ints[3] > maxLoadLabels,
		ints[2]*ints[3] > maxLoadLabelCells,
		ints[4] < 1 || ints[4] > maxLoadDegree,
		ints[5] < 0 || ints[5] > maxLoadTicks,
		ints[8] < 0 || ints[8] > maxLoadTableSize,
		ints[0]*ints[1]*ints[2] > maxLoadSynapses:
		return nil, fmt.Errorf("core: implausible configuration in file (delta range %d, history %d, neurons %d, labels %d, degree %d, ticks %d, table %d)",
			ints[0], ints[1], ints[2], ints[3], ints[4], ints[5], ints[8])
	}
	for _, r := range retiredInts {
		if ints[r.slot] != r.want {
			return nil, fmt.Errorf("core: retired %s in file is %d, want %d", r.name, ints[r.slot], r.want)
		}
	}
	for i, r := range retiredFloats {
		if floats[i] != r.want {
			return nil, fmt.Errorf("core: retired %s in file is %v, want %v", r.name, floats[i], r.want)
		}
	}
	cfg := Config{
		DeltaRange: int(ints[0]), History: int(ints[1]), Neurons: int(ints[2]),
		LabelsPerNeuron: int(ints[3]), Degree: int(ints[4]), Ticks: int(ints[5]),
		MiddleShift: int(ints[6]), TrainingTableSize: int(ints[8]),
		STDPOn: int(ints[9]), STDPPeriod: int(ints[10]), Seed: ints[11],
		OneTick: ints[12] != 0, Enlarged: ints[13] != 0, Reorder: ints[14] != 0,
		ColdPage: ints[15] != 0, MultiFire: ints[16] != 0, CompareOneTick: ints[17] != 0,
		Inputs: InputMode(ints[19]),
	}
	p, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: restoring: %w", err)
	}
	for n := 0; n < cfg.Neurons; n++ {
		for s := 0; s < cfg.LabelsPerNeuron; s++ {
			var delta int32
			var conf uint8
			if err := binary.Read(br, binary.LittleEndian, &delta); err != nil {
				return nil, fmt.Errorf("core: reading labels: %w", err)
			}
			if err := binary.Read(br, binary.LittleEndian, &conf); err != nil {
				return nil, fmt.Errorf("core: reading labels: %w", err)
			}
			p.it.labels[n][s] = Label{Delta: int(delta), Conf: conf}
		}
	}
	net, err := snn.LoadNetwork(br)
	if err != nil {
		return nil, err
	}
	// The network must have the shape the configuration built: a winner
	// past cfg.Neurons would index the Inference Table out of range.
	if got, want := net.Config(), p.net.Config(); got.InputSize != want.InputSize || got.Neurons != want.Neurons {
		return nil, fmt.Errorf("core: network in file is %d inputs x %d neurons, configuration needs %d x %d",
			got.InputSize, got.Neurons, want.InputSize, want.Neurons)
	}
	p.net = net
	return p, nil
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Session snapshots extend Save with the transient state Save's portable
// format deliberately drops: the SNN RNG stream position and the live
// Training Table (per-(PC, page) delta histories, their LRU order, and
// the table clock). Save's contract is a pre-warmed prefetcher that
// re-warms transients; SaveSession's contract is exact continuation — a
// prefetcher restored by LoadSession advises bit-identically to one that
// was never serialized, which is what lets a serving daemon evict an idle
// session and bring it back without forking its prediction stream.

var sessMagic = [4]byte{'P', 'F', 'X', '1'}

// SaveSession writes Save's learned state followed by the continuation
// extension.
func (p *Pathfinder) SaveSession(w io.Writer) error {
	if err := p.Save(w); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(sessMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, p.net.RNGState()); err != nil {
		return err
	}
	if err := p.tt.save(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadSession restores a prefetcher written by SaveSession. A blob
// written by plain Save (no extension section) loads too, with its
// transients starting fresh, so the two formats stay interchangeable for
// callers that only need Save's weaker contract.
func LoadSession(r io.Reader) (*Pathfinder, error) {
	br := bufio.NewReader(r)
	p, err := load(br)
	if err != nil {
		return nil, err
	}
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		if err == io.EOF {
			return p, nil
		}
		return nil, fmt.Errorf("core: reading session extension: %w", err)
	}
	if m != sessMagic {
		return nil, errors.New("core: bad session extension magic; not a PFX1 section")
	}
	var rngState uint64
	if err := binary.Read(br, binary.LittleEndian, &rngState); err != nil {
		return nil, fmt.Errorf("core: reading session extension: %w", err)
	}
	p.net.SetRNGState(rngState)
	if err := p.tt.load(br, p.cfg.Neurons); err != nil {
		return nil, err
	}
	return p, nil
}
