package prefetch

import (
	"math/rand"

	"pathfinder/internal/flat"
	"pathfinder/internal/trace"
)

// PythiaFeature selects a program feature used to index a Q-value table.
// Pythia's defining property is its modular feature set (§2.2: "a modular
// set of variables that can be used to train the Reinforcement Learning
// model"); the default configuration uses PC⊕Delta and the recent delta
// path, the combination the Pythia paper found strongest.
type PythiaFeature int

const (
	// FeaturePCDelta hashes the load PC with the last within-page delta.
	FeaturePCDelta PythiaFeature = iota
	// FeaturePCOffset hashes the load PC with the page offset.
	FeaturePCOffset
	// FeatureDeltaPath hashes the last three within-page deltas.
	FeatureDeltaPath
)

// PythiaConfig holds the tunable knobs of §4.3 ("several diverse
// configurations that primarily varied the action list and the alpha,
// gamma, and epsilon values").
type PythiaConfig struct {
	// Alpha, Gamma and Epsilon are the Q-learning rate, discount and
	// exploration probability.
	Alpha, Gamma, Epsilon float64
	// RewardAccurate, RewardInaccurate and RewardNoPrefetch follow
	// Pythia's reward levels.
	RewardAccurate, RewardInaccurate, RewardNoPrefetch float64
	// Actions is the candidate block-offset list (0 = no prefetch).
	Actions []int
	// Features are the Q-table indexes; the Q-value of an action is the
	// sum over feature tables (Pythia's QVStore).
	Features []PythiaFeature
	// States is the per-feature table size; EQSize the evaluation queue
	// capacity.
	States, EQSize int
	// Seed drives exploration.
	Seed int64
}

// DefaultPythiaConfig returns the configuration used in the evaluation.
func DefaultPythiaConfig(seed int64) PythiaConfig {
	return PythiaConfig{
		Alpha:            0.0065,
		Gamma:            0.556,
		Epsilon:          0.02,
		RewardAccurate:   20,
		RewardInaccurate: -8,
		RewardNoPrefetch: -1,
		Actions:          []int{0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 32, -1, -2, -3, -6},
		Features:         []PythiaFeature{FeaturePCDelta, FeatureDeltaPath},
		States:           4096,
		EQSize:           256,
		Seed:             seed,
	}
}

// Pythia is a tabular-Q-learning delta prefetcher after Bera et al. (MICRO
// 2021), the reinforcement-learning baseline of §4.3 (ported to the LLC as
// in the paper). State is a vector of hashed program features, actions are
// prefetch offsets, and rewards flow from an evaluation queue that scores
// each issued prefetch as accurate or inaccurate once its fate is known.
// Epsilon-greedy exploration gives Pythia its characteristic
// aggressiveness — high coverage, and occasionally wasted bandwidth
// chasing hard-to-predict patterns (§5).
type Pythia struct {
	cfg PythiaConfig

	// q[f] is feature f's table: [state][action]. The Q-value of an
	// action is the sum across features.
	q [][][]float64

	eq     []pythiaEQEntry // evaluation queue (ring)
	eqHead int
	eqLen  int
	// pending maps a target block to its chain of EQ entries, linked
	// through pythiaEQEntry.next in FIFO (enqueue) order.
	pending *flat.Table[int32]

	lastOffset *flat.Table[int]    // page -> last offset
	deltaPath  *flat.Table[[3]int] // page -> last three deltas
	rng        *rand.Rand

	curStates []int        // scratch: feature states of the current access
	cands     []pythiaCand // scratch: action candidates for selection
	advBuf    []uint64
}

type pythiaEQEntry struct {
	states []int // owned; copied from the current states on enqueue
	action int
	target uint64 // block; 0 target means no-prefetch action
	next   int32  // next EQ index in this target's pending chain, -1 = end
	live   bool
}

type pythiaCand struct {
	action int
	q      float64
}

// NewPythia returns a Pythia with the default configuration.
func NewPythia(seed int64) *Pythia { return NewPythiaWithConfig(DefaultPythiaConfig(seed)) }

// NewPythiaWithConfig returns a Pythia with an explicit configuration.
func NewPythiaWithConfig(cfg PythiaConfig) *Pythia {
	if cfg.States <= 0 {
		cfg.States = 4096
	}
	if cfg.EQSize <= 0 {
		cfg.EQSize = 256
	}
	if len(cfg.Actions) == 0 {
		cfg.Actions = DefaultPythiaConfig(cfg.Seed).Actions
	}
	if len(cfg.Features) == 0 {
		cfg.Features = []PythiaFeature{FeaturePCDelta}
	}
	p := &Pythia{
		cfg:        cfg,
		eq:         make([]pythiaEQEntry, cfg.EQSize),
		pending:    flat.NewTable[int32](cfg.EQSize),
		lastOffset: flat.NewTable[int](4096),
		deltaPath:  flat.NewTable[[3]int](4096),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		curStates:  make([]int, len(cfg.Features)),
		cands:      make([]pythiaCand, len(cfg.Actions)),
	}
	for i := range p.eq {
		p.eq[i].states = make([]int, len(cfg.Features))
	}
	p.q = make([][][]float64, len(cfg.Features))
	for f := range p.q {
		p.q[f] = make([][]float64, cfg.States)
		for s := range p.q[f] {
			p.q[f][s] = make([]float64, len(cfg.Actions))
		}
	}
	return p
}

// Name implements Prefetcher.
func (p *Pythia) Name() string { return "Pythia" }

// states hashes the current program context through every feature into the
// reused curStates scratch.
func (p *Pythia) states(pc uint64, delta int, offset int, path [3]int) []int {
	out := p.curStates
	for i, f := range p.cfg.Features {
		var h uint64
		switch f {
		case FeaturePCDelta:
			h = pc*0x9E3779B97F4A7C15 ^ uint64(uint32(delta))*0xBF58476D1CE4E5B9
		case FeaturePCOffset:
			h = pc*0x94D049BB133111EB ^ uint64(offset)*0x9E3779B97F4A7C15
		case FeatureDeltaPath:
			h = 0xCBF29CE484222325
			for _, d := range path {
				h = (h ^ uint64(uint32(d))) * 0x100000001B3
			}
		}
		out[i] = int(h % uint64(p.cfg.States))
	}
	return out
}

// qValue sums an action's Q across the feature tables.
func (p *Pythia) qValue(states []int, action int) float64 {
	v := 0.0
	for f, s := range states {
		v += p.q[f][s][action]
	}
	return v
}

func (p *Pythia) maxQ(states []int) float64 {
	best := p.qValue(states, 0)
	for a := 1; a < len(p.cfg.Actions); a++ {
		if v := p.qValue(states, a); v > best {
			best = v
		}
	}
	return best
}

// resolve applies a reward to an EQ entry: a Q update on every feature
// table, bootstrapping with the value of the current state.
func (p *Pythia) resolve(idx int, reward float64, curStates []int) {
	e := &p.eq[idx]
	if !e.live {
		return
	}
	e.live = false
	target := reward + p.cfg.Gamma*p.maxQ(curStates)
	// The TD error is against the summed Q; spread the update evenly
	// across feature tables (Pythia's QVStore update).
	cur := p.qValue(e.states, e.action)
	step := p.cfg.Alpha * (target - cur) / float64(len(e.states))
	for f, s := range e.states {
		p.q[f][s][e.action] += step
	}
}

// Advise implements Prefetcher. The returned slice is reused across calls
// and valid only until the next Advise.
func (p *Pythia) Advise(a trace.Access, budget int) []uint64 {
	block := a.Block()
	page := a.Page()
	off := a.Offset()

	delta := 0
	if prev := p.lastOffset.Get(page); prev != nil {
		delta = off - *prev
	}
	var path [3]int
	if pp := p.deltaPath.Get(page); pp != nil {
		path = *pp
	}
	if p.lastOffset.Len() > 1<<16 {
		p.lastOffset.Reset() // cheap bound on the feature tables
		p.deltaPath.Reset()
	}
	lo, _ := p.lastOffset.Insert(page)
	*lo = off
	if delta != 0 {
		path[0], path[1], path[2] = path[1], path[2], delta
		dp, _ := p.deltaPath.Insert(page)
		*dp = path
	}

	s := p.states(a.PC, delta, off, path)

	// Reward any outstanding prefetch that predicted this demand, in
	// enqueue order.
	if head := p.pending.Get(block); head != nil {
		for idx := *head; idx >= 0; idx = p.eq[idx].next {
			p.resolve(int(idx), p.cfg.RewardAccurate, s)
		}
		p.pending.Delete(block)
	}

	// Choose up to budget actions: the top-Q actions, with epsilon-greedy
	// exploration.
	cands := p.cands[:0]
	for i := range p.cfg.Actions {
		cands = append(cands, pythiaCand{i, p.qValue(s, i)})
	}
	for i := 0; i < budget && i < len(cands); i++ {
		best := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].q > cands[best].q {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
	}

	out := p.advBuf[:0]
	for i := 0; i < budget && i < len(cands); i++ {
		actIdx := cands[i].action
		if p.rng.Float64() < p.cfg.Epsilon {
			actIdx = p.rng.Intn(len(p.cfg.Actions))
		}
		offset := p.cfg.Actions[actIdx]
		target := uint64(0)
		if offset != 0 {
			t := int64(block) + int64(offset)
			if t > 0 {
				target = uint64(t)
			}
		}
		p.enqueue(s, actIdx, target)
		if target != 0 {
			out = append(out, trace.BlockAddr(target))
		}
	}
	p.advBuf = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// enqueue pushes an action outcome tracker, resolving the entry it evicts.
func (p *Pythia) enqueue(states []int, action int, target uint64) {
	if p.eqLen == len(p.eq) {
		idx := p.eqHead
		e := &p.eq[idx]
		if e.live {
			reward := p.cfg.RewardInaccurate
			if e.target == 0 {
				reward = p.cfg.RewardNoPrefetch
			}
			p.resolve(idx, reward, states)
			if e.target != 0 {
				p.removePending(e.target, int32(idx))
			}
		}
		p.eqHead = (p.eqHead + 1) % len(p.eq)
		p.eqLen--
	}
	idx := (p.eqHead + p.eqLen) % len(p.eq)
	e := &p.eq[idx]
	copy(e.states, states)
	e.action = action
	e.target = target
	e.next = -1
	e.live = true
	p.eqLen++
	if target != 0 {
		// Append at the chain tail so demand resolution sees entries in
		// enqueue order. Chains are short (same block suggested more than
		// once within the EQ window), so the walk is cheap.
		head, existed := p.pending.Insert(target)
		if !existed {
			*head = int32(idx)
			return
		}
		tail := *head
		for p.eq[tail].next >= 0 {
			tail = p.eq[tail].next
		}
		p.eq[tail].next = int32(idx)
	}
}

// removePending unlinks an evicted EQ entry from its target's chain.
func (p *Pythia) removePending(target uint64, idx int32) {
	head := p.pending.Get(target)
	if head == nil {
		return
	}
	if *head == idx {
		if next := p.eq[idx].next; next >= 0 {
			*head = next
		} else {
			p.pending.Delete(target)
		}
		return
	}
	for cur := *head; ; cur = p.eq[cur].next {
		next := p.eq[cur].next
		if next < 0 {
			return
		}
		if next == idx {
			p.eq[cur].next = p.eq[idx].next
			return
		}
	}
}
