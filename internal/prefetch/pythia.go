package prefetch

import (
	"math/rand"

	"pathfinder/internal/flat"
	"pathfinder/internal/trace"
)

// Pythia's configuration: the one §4.3 kept of "several diverse
// configurations that primarily varied the action list and the alpha,
// gamma, and epsilon values".
const (
	pythiaAlpha   = 0.0065 // Q-learning rate
	pythiaGamma   = 0.556  // discount
	pythiaEpsilon = 0.02   // exploration probability

	// Pythia's reward levels.
	pythiaRewardAccurate   = 20
	pythiaRewardInaccurate = -8
	pythiaRewardNoPrefetch = -1

	pythiaFeatures = 2    // Q-tables: PC⊕Delta, then the delta path
	pythiaStates   = 4096 // entries per feature table
	pythiaEQSize   = 256  // evaluation queue capacity
)

// pythiaActions is the candidate block-offset list (0 = no prefetch).
var pythiaActions = [...]int{0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 32, -1, -2, -3, -6}

// pythiaState holds one access's state in each feature table.
type pythiaState [pythiaFeatures]int

// Pythia is a tabular-Q-learning delta prefetcher after Bera et al. (MICRO
// 2021), the reinforcement-learning baseline of §4.3 (ported to the LLC as
// in the paper). State is a vector of hashed program features, actions are
// prefetch offsets, and rewards flow from an evaluation queue that scores
// each issued prefetch as accurate or inaccurate once its fate is known.
// Epsilon-greedy exploration gives Pythia its characteristic
// aggressiveness — high coverage, and occasionally wasted bandwidth
// chasing hard-to-predict patterns (§5).
type Pythia struct {
	// q[f] is feature f's table: [state][action]. The Q-value of an
	// action is the sum across features (Pythia's QVStore).
	q *[pythiaFeatures][pythiaStates][len(pythiaActions)]float64

	eq     [pythiaEQSize]pythiaEQEntry // evaluation queue (ring)
	eqHead int
	eqLen  int
	// pending maps a target block to its chain of EQ entries, linked
	// through pythiaEQEntry.next in FIFO (enqueue) order.
	pending *flat.Table[int32]

	lastOffset *flat.Table[int]    // page -> last offset
	deltaPath  *flat.Table[[3]int] // page -> last three deltas
	rng        *rand.Rand

	cands  [len(pythiaActions)]pythiaCand // scratch: action candidates for selection
	advBuf []uint64
}

type pythiaEQEntry struct {
	states pythiaState
	action int
	target uint64 // block; 0 target means no-prefetch action
	next   int32  // next EQ index in this target's pending chain, -1 = end
	live   bool
}

type pythiaCand struct {
	action int
	q      float64
}

// NewPythia returns a Pythia whose exploration is driven by seed.
func NewPythia(seed int64) *Pythia {
	return &Pythia{
		q:          new([pythiaFeatures][pythiaStates][len(pythiaActions)]float64),
		pending:    flat.NewTable[int32](pythiaEQSize),
		lastOffset: flat.NewTable[int](4096),
		deltaPath:  flat.NewTable[[3]int](4096),
		rng:        rand.New(rand.NewSource(seed)),
	}
}

// Name implements Prefetcher.
func (p *Pythia) Name() string { return "Pythia" }

// newPythiaState hashes the current program context through both features:
// PC⊕Delta, then the last three within-page deltas.
func newPythiaState(pc uint64, delta int, path [3]int) pythiaState {
	pcDelta := pc*0x9E3779B97F4A7C15 ^ uint64(uint32(delta))*0xBF58476D1CE4E5B9
	deltaPath := uint64(0xCBF29CE484222325)
	for _, d := range path {
		deltaPath = (deltaPath ^ uint64(uint32(d))) * 0x100000001B3
	}
	return pythiaState{int(pcDelta % pythiaStates), int(deltaPath % pythiaStates)}
}

// qValue sums an action's Q across the feature tables.
func (p *Pythia) qValue(s pythiaState, action int) float64 {
	v := 0.0
	for f, st := range s {
		v += p.q[f][st][action]
	}
	return v
}

func (p *Pythia) maxQ(s pythiaState) float64 {
	best := p.qValue(s, 0)
	for a := 1; a < len(pythiaActions); a++ {
		if v := p.qValue(s, a); v > best {
			best = v
		}
	}
	return best
}

// resolve applies a reward to an EQ entry: a Q update on every feature
// table, bootstrapping with the value of the current state.
func (p *Pythia) resolve(idx int, reward float64, cur pythiaState) {
	e := &p.eq[idx]
	if !e.live {
		return
	}
	e.live = false
	target := reward + pythiaGamma*p.maxQ(cur)
	// The TD error is against the summed Q; spread the update evenly
	// across feature tables (Pythia's QVStore update).
	q := p.qValue(e.states, e.action)
	step := pythiaAlpha * (target - q) / pythiaFeatures
	for f, st := range e.states {
		p.q[f][st][e.action] += step
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

	s := newPythiaState(a.PC, delta, path)

	// Reward any outstanding prefetch that predicted this demand, in
	// enqueue order.
	if head := p.pending.Get(block); head != nil {
		for idx := *head; idx >= 0; idx = p.eq[idx].next {
			p.resolve(int(idx), pythiaRewardAccurate, s)
		}
		p.pending.Delete(block)
	}

	// Choose up to budget actions: the top-Q actions, with epsilon-greedy
	// exploration.
	cands := p.cands[:0]
	for i := range pythiaActions {
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
		if p.rng.Float64() < pythiaEpsilon {
			actIdx = p.rng.Intn(len(pythiaActions))
		}
		offset := pythiaActions[actIdx]
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
func (p *Pythia) enqueue(s pythiaState, action int, target uint64) {
	if p.eqLen == len(p.eq) {
		idx := p.eqHead
		e := &p.eq[idx]
		if e.live {
			reward := float64(pythiaRewardInaccurate)
			if e.target == 0 {
				reward = pythiaRewardNoPrefetch
			}
			p.resolve(idx, reward, s)
			if e.target != 0 {
				p.removePending(e.target, int32(idx))
			}
		}
		p.eqHead = (p.eqHead + 1) % len(p.eq)
		p.eqLen--
	}
	idx := (p.eqHead + p.eqLen) % len(p.eq)
	e := &p.eq[idx]
	e.states = s
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
