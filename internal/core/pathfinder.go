package core

import (
	"fmt"

	"pathfinder/internal/snn"
	"pathfinder/internal/trace"
)

// Config selects a PATHFINDER variant. The zero value is not usable; start
// from DefaultConfig and adjust.
type Config struct {
	// DeltaRange is D, the width of the pixel-matrix delta axis. It must
	// be odd; the paper evaluates 127 (±63), 63 (±31) and 31 (±15)
	// (Figure 5, Table 9).
	DeltaRange int
	// History is H, the delta-history length (the paper uses 3).
	History int
	// Neurons is the excitatory/inhibitory neuron count (Figure 6 sweeps
	// 10–100; the default is 50).
	Neurons int
	// LabelsPerNeuron is 1 or 2 (§3.4 "Multi-Degree Prefetching").
	LabelsPerNeuron int
	// Degree caps prefetches per access (the evaluation uses 2).
	Degree int
	// Ticks is the SNN input-interval length (Table 4: 32).
	Ticks int
	// OneTick replaces the T-tick simulation with the §3.4 1-tick
	// approximation (Figure 7).
	OneTick bool
	// Enlarged turns on the enlarged-pixel encoding (§3.4), with
	// neighbour pixels at 0.35 of the centre's brightness.
	Enlarged bool
	// MiddleShift is the §3.4 middle-delta shift constant (0 = off).
	MiddleShift int
	// Reorder applies the fixed column permutation of the Figure 9
	// "reordered" variant, un-aliasing adjacent enlarged pixels.
	Reorder bool
	// ColdPage enables the initial-page-access encodings of §3.4, letting
	// the SNN be queried from the very first touch of a page instead of
	// after H+1 accesses.
	ColdPage bool
	// MultiFire lowers lateral inhibition to a quarter of Table 4's so
	// 2–5 neurons fire per input, the alternative multi-degree mechanism
	// of §3.4.
	MultiFire bool
	// TrainingTableSize is the Training Table capacity (the paper uses
	// 1K rows).
	TrainingTableSize int
	// STDPOn / STDPPeriod duty-cycle learning (Figure 8): STDP runs for
	// the first STDPOn queries of every STDPPeriod queries. A zero
	// period leaves STDP always on.
	STDPOn, STDPPeriod int
	// Inputs selects the SNN input encoding (§3.2's design space);
	// InputDeltaHistory is the paper's choice.
	Inputs InputMode
	// CompareOneTick additionally evaluates the 1-tick winner on every
	// full-interval query and records the match rate (Table 1).
	CompareOneTick bool
	// Seed makes the SNN deterministic.
	Seed int64
}

// DefaultConfig is the high-accuracy configuration of Figure 4: 50 neurons,
// 2 labels per neuron, delta range ±63, 32-tick interval, prefetch degree
// 2, with the cold-page extension enabled.
//
// Unlike the paper's best variant it does NOT enable the enlarged-pixel
// encoding: in this reproduction the rate-coding input gain already makes
// sparse pixel matrices fire reliably, so enlargement contributes only its
// aliasing downside (adjacent delta histories exciting the same neuron —
// the very problem §3.4's reordering tries to mitigate) and measurably
// lowers accuracy. EXPERIMENTS.md discusses the discrepancy; the enlarged
// variants remain available for the Figure 9 ladder.
func DefaultConfig() Config {
	return Config{
		DeltaRange:        127,
		History:           3,
		Neurons:           50,
		LabelsPerNeuron:   2,
		Degree:            2,
		Ticks:             32,
		ColdPage:          true,
		TrainingTableSize: 1024,
		Seed:              1,
	}
}

// Fixed parameters of the datapath.
const (
	// confThreshold is the minimum label confidence to issue a prefetch:
	// a label must be confirmed once after assignment, giving PATHFINDER
	// the selectivity §5 describes ("it waits to see the same pattern
	// multiple times and needs high-confidence labels").
	confThreshold = 2
	// multiFireInhibition scales the SNN's inhibition strength under
	// MultiFire.
	multiFireInhibition = 0.25
)

// Stats exposes PATHFINDER's internal counters for the experiment harness.
type Stats struct {
	// Accesses is the number of observed loads.
	Accesses uint64
	// Queries is the number of SNN input intervals presented.
	Queries uint64
	// Issued is the number of prefetch suggestions made.
	Issued uint64
	// OneTickQueries/OneTickMatches support Table 1: on full-interval
	// queries with CompareOneTick set, how often the 1-tick winner
	// matched the interval winner.
	OneTickQueries, OneTickMatches uint64
}

// InputMode selects what the SNN sees per query. §3.2 notes "there is a
// large design space for these inputs" and that the paper "later also
// discusses and evaluates other types of inputs"; these are the three
// natural points in that space.
type InputMode int

const (
	// InputDeltaHistory is the paper's encoding: H rows of one-hot deltas.
	InputDeltaHistory InputMode = iota
	// InputPCDelta appends a row encoding the (hashed) load PC, making
	// patterns PC-aware at the cost of a larger input layer.
	InputPCDelta
	// InputFootprint replaces the delta history with the page's
	// touched-offset bitmap plus the current offset — a spatial-footprint
	// input in the spirit of SMS.
	InputFootprint

	numInputModes
)

// QueryHook observes one SNN query: the delta history presented, the neuron
// that won (or -1), and the prefetch addresses issued for it. Hooks serve
// observability — the §3.6 walkthrough, experiment instrumentation, tests.
// hist and prefetches may point into per-access scratch that the next
// Advise overwrites; hooks that retain either must copy.
type QueryHook func(hist []int, winner int, prefetches []uint64)

// Pathfinder is the SNN/STDP prefetcher of §3. It implements the
// prefetch.Prefetcher interface. It is not safe for concurrent use.
type Pathfinder struct {
	cfg Config
	enc *Encoder
	net *snn.Network
	tt  *TrainingTable
	it  *InferenceTable

	// Hook, when non-nil, is invoked after every SNN query.
	Hook QueryHook

	pixels []float64
	stats  Stats

	// Per-access scratch, reused so that Advise allocates nothing at
	// steady state. The returned suggestion slice is one of these buffers:
	// like every table prefetcher's, it is valid only until the next
	// Advise, and callers consume or copy it before then.
	histBuf  []int      // synthetic histories (cold-page, partial)
	res      snn.Result // SNN query result, reused via PresentInto
	firedBuf []int      // multi-fire neuron list scratch
	labelBuf []Label    // one neuron's live labels
	outBuf   []uint64   // the returned suggestions
}

// New builds a PATHFINDER instance from the configuration.
func New(cfg Config) (*Pathfinder, error) {
	if cfg.LabelsPerNeuron < 1 {
		return nil, fmt.Errorf("core: labels per neuron %d must be >= 1", cfg.LabelsPerNeuron)
	}
	if cfg.Degree < 1 {
		return nil, fmt.Errorf("core: degree %d must be >= 1", cfg.Degree)
	}
	if cfg.STDPPeriod > 0 && cfg.STDPOn <= 0 {
		return nil, fmt.Errorf("core: STDP duty cycle needs STDPOn > 0 (got %d)", cfg.STDPOn)
	}
	// Zero Ticks and TrainingTableSize select the defaults; a negative
	// one, or an unknown input mode, is an error rather than a silent
	// default that Save would write and Load refuse.
	if cfg.Ticks < 0 {
		return nil, fmt.Errorf("core: ticks %d must be >= 0", cfg.Ticks)
	}
	if cfg.TrainingTableSize < 0 {
		return nil, fmt.Errorf("core: training table size %d must be >= 0", cfg.TrainingTableSize)
	}
	if cfg.Inputs < 0 || cfg.Inputs >= numInputModes {
		return nil, fmt.Errorf("core: unknown input mode %d", cfg.Inputs)
	}
	enc, err := NewEncoder(cfg.DeltaRange, cfg.History)
	if err != nil {
		return nil, err
	}
	enc.Enlarged = cfg.Enlarged
	enc.MiddleShift = cfg.MiddleShift
	enc.Reorder = cfg.Reorder

	inputSize := enc.InputSize()
	switch cfg.Inputs {
	case InputPCDelta:
		inputSize += cfg.DeltaRange // one extra row for the PC
	case InputFootprint:
		inputSize = 2 * trace.BlocksPerPage // footprint row + current-offset row
	}
	scfg := snn.DefaultConfig(inputSize)
	scfg.Neurons = cfg.Neurons
	scfg.Seed = cfg.Seed
	if cfg.Ticks > 0 {
		scfg.Ticks = cfg.Ticks
	}
	if cfg.MultiFire {
		scfg.Inh *= multiFireInhibition
	}
	net, err := snn.New(scfg)
	if err != nil {
		return nil, err
	}
	return &Pathfinder{
		cfg:     cfg,
		enc:     enc,
		net:     net,
		tt:      NewTrainingTable(cfg.TrainingTableSize, cfg.History),
		it:      NewInferenceTable(cfg.Neurons, cfg.LabelsPerNeuron),
		pixels:  make([]float64, inputSize),
		histBuf: make([]int, cfg.History),
	}, nil
}

// Name implements prefetch.Prefetcher.
func (p *Pathfinder) Name() string { return "Pathfinder" }

// Config returns the active configuration.
func (p *Pathfinder) Config() Config { return p.cfg }

// Stats returns a snapshot of the internal counters.
func (p *Pathfinder) Stats() Stats { return p.stats }

// Network exposes the underlying SNN (used by examples and experiments).
func (p *Pathfinder) Network() *snn.Network { return p.net }

// ReplaceNetwork swaps in a different SNN (it must have the same input
// size and neuron count). Used by hyper-parameter sweeps; labels and
// tables reset because they are meaningless for a fresh network.
func (p *Pathfinder) ReplaceNetwork(net *snn.Network) {
	if net.Config().InputSize != p.enc.InputSize() || net.Config().Neurons != p.cfg.Neurons {
		panic("core: ReplaceNetwork shape mismatch")
	}
	p.net = net
	p.it.Reset()
	p.tt = NewTrainingTable(p.cfg.TrainingTableSize, p.cfg.History)
}

// Labels returns a snapshot of every neuron's live labels — the Inference
// Table contents (§3.3) — for observability and debugging.
func (p *Pathfinder) Labels() [][]Label {
	out := make([][]Label, p.cfg.Neurons)
	for n := range out {
		out[n] = p.it.Labels(n)
	}
	return out
}

// Advise implements prefetch.Prefetcher: observe one access, learn, and
// suggest up to budget block-aligned byte addresses to prefetch within the
// same page (§3.2: PATHFINDER predicts the next blocks touched within the
// current page). The returned slice is reused across calls and valid only
// until the next Advise.
func (p *Pathfinder) Advise(a trace.Access, budget int) []uint64 {
	p.stats.Accesses++
	page := a.Page()
	off := a.Offset()

	e, ok := p.tt.Lookup(a.PC, page)
	if !ok {
		e = p.tt.Insert(a.PC, page, off)
		if p.cfg.ColdPage {
			// First touch: feed {OF1, 0, 0, ...} (§3.4 "Initial Accesses
			// to a Page").
			if p.enc.InRange(off) {
				hist := p.histBuf
				for i := range hist {
					hist[i] = 0
				}
				hist[0] = off
				return p.query(e, hist, off, page, budget)
			}
		}
		return nil
	}

	delta := off - e.LastOffset()
	if delta == 0 {
		return nil
	}

	if !p.enc.InRange(delta) {
		// Unencodable delta: the pattern is broken at this range
		// (Figure 5's coverage cost of small delta ranges). It is not fed
		// to the labels either — an out-of-range jump says nothing about
		// the within-page pattern the neuron represents, and letting it
		// decrement confidences would churn labels on page-crossing
		// streams.
		e.ResetHistory(off)
		return nil
	}

	// Reconcile the previous query's firing neuron with the delta that
	// actually followed: label assignment and confidence update (§3.3).
	if n := e.LastNeuron(); n >= 0 {
		p.it.Observe(n, delta)
	}
	e.PushDelta(delta, off, p.cfg.History)

	switch {
	case e.Ready(p.cfg.History):
		return p.query(e, e.Deltas(), off, page, budget)
	case p.cfg.ColdPage && e.broken == 0:
		// Partial history: zeros move to the front so the SNN can tell
		// an offset pattern from a delta pattern (§3.4).
		hist := p.histBuf
		for i := range hist {
			hist[i] = 0
		}
		k := len(e.Deltas())
		copy(hist[p.cfg.History-k:], e.Deltas())
		return p.query(e, hist, off, page, budget)
	}
	return nil
}

// query encodes a history, presents it to the SNN, records the firing
// neuron, and turns labelled firings into prefetch suggestions.
func (p *Pathfinder) query(e *TrainingEntry, hist []int, off int, page uint64, budget int) []uint64 {
	if err := p.encodeInput(e, hist, off); err != nil {
		return nil
	}
	p.stats.Queries++
	learn := p.stdpEnabled()

	// p.res is reused across queries (PresentInto recycles its Spikes
	// buffer), keeping the SNN query allocation-free at steady state.
	res := &p.res
	var err error
	if p.cfg.OneTick {
		err = p.net.PresentOneTickInto(res, p.pixels, learn)
	} else {
		oneTick := -1
		if p.cfg.CompareOneTick {
			oneTick, _ = p.net.OneTickWinner(p.pixels)
		}
		err = p.net.PresentInto(res, p.pixels, learn)
		if err == nil && p.cfg.CompareOneTick && res.Winner >= 0 {
			p.stats.OneTickQueries++
			if oneTick == res.Winner {
				p.stats.OneTickMatches++
			}
		}
	}
	if err != nil {
		return nil
	}
	out := p.issue(e, res, off, page, budget)
	if p.Hook != nil {
		p.Hook(hist, res.Winner, out)
	}
	return out
}

func (p *Pathfinder) issue(e *TrainingEntry, res *snn.Result, off int, page uint64, budget int) []uint64 {
	e.SetLastNeuron(res.Winner)
	if res.Winner < 0 {
		return nil
	}
	if p.cfg.MultiFire {
		p.firedBuf = res.AppendFiredNeurons(p.firedBuf[:0])
	} else {
		p.firedBuf = append(p.firedBuf[:0], res.Winner)
	}
	fired := p.firedBuf
	limit := p.cfg.Degree
	if budget < limit {
		limit = budget
	}
	out := p.outBuf[:0]
fill:
	for _, n := range fired {
		p.labelBuf = p.it.AppendLabels(p.labelBuf[:0], n)
		for _, l := range p.labelBuf {
			if l.Conf < confThreshold {
				continue
			}
			target := off + l.Delta
			if target < 0 || target >= trace.BlocksPerPage {
				continue
			}
			block := page*trace.BlocksPerPage + uint64(target)
			out = append(out, trace.BlockAddr(block))
			p.stats.Issued++
			if len(out) == limit {
				break fill
			}
		}
	}
	p.outBuf = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// encodeInput fills p.pixels according to the configured input mode.
func (p *Pathfinder) encodeInput(e *TrainingEntry, hist []int, off int) error {
	switch p.cfg.Inputs {
	case InputFootprint:
		for i := range p.pixels {
			p.pixels[i] = 0
		}
		for b := 0; b < trace.BlocksPerPage; b++ {
			if e.footprint&(1<<uint(b)) != 0 {
				p.pixels[b] = 1
			}
		}
		p.pixels[trace.BlocksPerPage+off] = 1
		return nil
	case InputPCDelta:
		base := p.pixels[:p.enc.InputSize()]
		if err := p.enc.Encode(hist, base); err != nil {
			return err
		}
		row := p.pixels[p.enc.InputSize():]
		for i := range row {
			row[i] = 0
		}
		h := e.pc * 0x9E3779B97F4A7C15
		row[int(h%uint64(p.cfg.DeltaRange))] = 1
		return nil
	default:
		return p.enc.Encode(hist, p.pixels)
	}
}

// stdpEnabled applies the Figure 8 duty cycle: learning is active for the
// first STDPOn queries of every STDPPeriod queries.
func (p *Pathfinder) stdpEnabled() bool {
	if p.cfg.STDPPeriod <= 0 {
		return true
	}
	return p.stats.Queries%uint64(p.cfg.STDPPeriod) < uint64(p.cfg.STDPOn)
}
