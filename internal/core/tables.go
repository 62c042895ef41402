package core

// This file implements PATHFINDER's two supporting tables (§3.3, §3.4).
//
// The Training Table is a small CAM indexed by (PC, page). It tracks the
// recent within-page delta history for each active (PC, page) stream, plus
// the neuron that fired for the stream's previous SNN query — the link that
// lets the next observed delta become that neuron's label.
//
// The Inference Table maps each excitatory neuron to one or two
// (label, confidence) pairs. Confidences are 3-bit saturating counters; a
// label whose confidence reaches zero is erased, restarting label discovery
// for that neuron (§3.4 "Confidence Estimations").

import (
	"encoding/binary"
	"fmt"
	"io"

	"pathfinder/internal/flat"
)

// TrainingEntry is one (PC, page) stream tracked by the Training Table.
type TrainingEntry struct {
	pc, page uint64
	// lastOffset is the most recent block offset touched in the page.
	lastOffset int
	// deltas is the most recent delta history, oldest first; len grows
	// up to the configured H. It is a window of the table's delta slab
	// with capacity H, so pushes never allocate.
	deltas []int
	// broken is set when an unencodable (out-of-range) delta interrupted
	// the history; the history must refill before the SNN is queried.
	broken int
	// lastNeuron is the excitatory neuron that fired for this stream's
	// previous SNN query, or -1.
	lastNeuron int
	// footprint is the touched-offset bitmap of the page (for the
	// InputFootprint encoding).
	footprint uint64
	// chain is the next entry whose (pc, page) hashes to the same index
	// key, or 0.
	chain int32
}

// TrainingTable is the (PC, page)-indexed CAM of §3.3, with LRU
// replacement. The paper sizes it at 1K 120-bit rows.
//
// Entries live in one slab indexed by recency-list node, their delta
// histories in a second slab of H ints per node, and a flat table maps a
// hash of (pc, page) to the first node of its collision chain. The LRU
// victim is the list's oldest node, so no operation scans the table, and
// once the slabs reach capacity neither Lookup nor Insert allocates. The
// slabs grow on demand, so a large configured capacity costs nothing
// until it fills.
type TrainingTable struct {
	index flat.Table[int32] // trainingHash(pc, page) -> first node of its chain
	ents  []TrainingEntry   // ents[i] is node i's entry; ents[0] is unused
	hist  []int             // node i's delta history is hist[i*h : (i+1)*h]
	order flat.List
	cap   int
	h     int
}

// NewTrainingTable returns a table with the given capacity (entries) and
// history length H.
func NewTrainingTable(capacity, h int) *TrainingTable {
	if capacity <= 0 {
		capacity = 1024
	}
	return &TrainingTable{cap: capacity, h: h}
}

// trainingHash folds a (pc, page) key into the index's one-word key.
// Distinct keys may collide; the chains resolve them.
func trainingHash(pc, page uint64) uint64 {
	return pc*0x9E3779B97F4A7C15 ^ page
}

// Len returns the number of live entries.
func (t *TrainingTable) Len() int { return t.order.Len() }

// find returns the node holding (pc, page), or 0.
func (t *TrainingTable) find(pc, page uint64) int32 {
	head := t.index.Get(trainingHash(pc, page))
	if head == nil {
		return 0
	}
	i := *head
	for i != 0 && (t.ents[i].pc != pc || t.ents[i].page != page) {
		i = t.ents[i].chain
	}
	return i
}

// Lookup finds the entry for (pc, page), if present, refreshing its LRU
// position. The entry is valid until the next Insert.
func (t *TrainingTable) Lookup(pc, page uint64) (*TrainingEntry, bool) {
	i := t.find(pc, page)
	if i == 0 {
		return nil, false
	}
	t.order.Touch(i)
	return &t.ents[i], true
}

// Insert allocates an entry for (pc, page), which must be absent, with the
// given first offset, evicting the LRU entry if the table is full. The
// entry is valid until the next Insert.
func (t *TrainingTable) Insert(pc, page uint64, offset int) *TrainingEntry {
	if t.order.Len() >= t.cap {
		t.remove(t.order.Oldest())
	}
	i := t.order.PushFront()
	if int(i) >= len(t.ents) {
		t.grow(int(i) + 1)
	}
	head, existed := t.index.Insert(trainingHash(pc, page))
	var chain int32
	if existed {
		chain = *head
	}
	*head = i
	base := int(i) * t.h
	t.ents[i] = TrainingEntry{
		pc:         pc,
		page:       page,
		lastOffset: offset,
		footprint:  1 << uint(offset),
		deltas:     t.hist[base : base : base+t.h],
		lastNeuron: -1,
		chain:      chain,
	}
	return &t.ents[i]
}

// remove unlinks node i from its hash chain and the recency list.
func (t *TrainingTable) remove(i int32) {
	e := &t.ents[i]
	key := trainingHash(e.pc, e.page)
	head := t.index.Get(key)
	switch {
	case *head != i:
		j := *head
		for t.ents[j].chain != i {
			j = t.ents[j].chain
		}
		t.ents[j].chain = e.chain
	case e.chain != 0:
		*head = e.chain
	default:
		t.index.Delete(key)
	}
	t.order.Remove(i)
}

// grow enlarges both slabs to hold at least n nodes (node 0 included),
// doubling up to the capacity, and re-points every entry's history at the
// new delta slab.
func (t *TrainingTable) grow(n int) {
	size := max(n, min(2*len(t.ents), t.cap+1), 16)
	ents := make([]TrainingEntry, size)
	copy(ents, t.ents)
	hist := make([]int, size*t.h)
	copy(hist, t.hist)
	for i := range t.ents {
		base := i * t.h
		ents[i].deltas = hist[base : base+len(t.ents[i].deltas) : base+t.h]
	}
	t.ents, t.hist = ents, hist
}

// PushDelta appends a delta to the entry's history, dropping the oldest
// once H deltas are held, and updates lastOffset and the page footprint.
func (e *TrainingEntry) PushDelta(delta, newOffset, h int) {
	e.footprint |= 1 << uint(newOffset)
	if len(e.deltas) == h {
		copy(e.deltas, e.deltas[1:])
		e.deltas = e.deltas[:h-1]
	}
	e.deltas = append(e.deltas, delta)
	e.lastOffset = newOffset
	if e.broken > 0 {
		e.broken--
	}
}

// Break marks the history as interrupted by an unencodable delta: the next
// H pushes must complete before the stream is queryable again.
func (e *TrainingEntry) Break(h int) {
	e.broken = h
	e.lastNeuron = -1
}

// ResetHistory discards the accumulated delta history after an unencodable
// delta and restarts tracking from the given offset.
func (e *TrainingEntry) ResetHistory(offset int) {
	e.deltas = e.deltas[:0]
	e.broken = 0
	e.lastNeuron = -1
	e.lastOffset = offset
}

// Ready reports whether the entry holds a full, unbroken H-delta history.
func (e *TrainingEntry) Ready(h int) bool {
	return len(e.deltas) == h && e.broken == 0
}

// Deltas exposes the current history (oldest first). The returned slice is
// owned by the entry; callers must not modify it.
func (e *TrainingEntry) Deltas() []int { return e.deltas }

// save writes the table's live entries in LRU order, oldest first. PFX1
// gives the table a clock and each entry a last-use stamp; the recency
// list is the only order the table keeps, so save writes the entry count
// as the clock and stamps the k-th oldest entry k. Part of the
// SaveSession extension; see serialize.go.
func (t *TrainingTable) save(w io.Writer) error {
	n := uint64(t.order.Len())
	if err := binary.Write(w, binary.LittleEndian, n); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, int64(n)); err != nil {
		return err
	}
	// One row per entry: pc, page, footprint and last-use stamp, then
	// last offset, broken count, last neuron and delta count as int64s,
	// then the deltas as int64s.
	var row []byte
	stamp := uint64(0)
	for i := t.order.Oldest(); i != 0; i = t.order.Newer(i) {
		e := &t.ents[i]
		stamp++
		row = row[:0]
		for _, v := range [...]uint64{e.pc, e.page, e.footprint, stamp,
			uint64(e.lastOffset), uint64(e.broken), uint64(e.lastNeuron), uint64(len(e.deltas))} {
			row = binary.LittleEndian.AppendUint64(row, v)
		}
		for _, d := range e.deltas {
			row = binary.LittleEndian.AppendUint64(row, uint64(d))
		}
		if _, err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// load replaces the table's contents with a stream written by save,
// validating every field against the table's own geometry and the
// network's neuron count before any allocation (a corrupt snapshot must
// fail loudly, never OOM, corrupt the restored stream state or make a
// later Advise index past the network). save writes unique last-use
// stamps in ascending order, and load requires exactly that, inserting the
// entries in that order so the recency list matches the stamps.
func (t *TrainingTable) load(r io.Reader, neurons int) error {
	var clock uint64
	if err := binary.Read(r, binary.LittleEndian, &clock); err != nil {
		return fmt.Errorf("core: reading training table: %w", err)
	}
	var count int64
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("core: reading training table: %w", err)
	}
	if count < 0 || count > int64(t.cap) {
		return fmt.Errorf("core: training table holds %d entries, capacity %d", count, t.cap)
	}
	fresh := NewTrainingTable(t.cap, t.h)
	var prevUse uint64
	deltas := make([]int64, t.h)
	for i := int64(0); i < count; i++ {
		var row [8]uint64
		if err := binary.Read(r, binary.LittleEndian, row[:]); err != nil {
			return fmt.Errorf("core: reading training table: %w", err)
		}
		hdr := row[:4]
		lastOffset, broken, lastNeuron, nd := int64(row[4]), int64(row[5]), int64(row[6]), int64(row[7])
		switch {
		case lastOffset < 0 || lastOffset > 63,
			broken < 0 || broken > int64(t.h),
			lastNeuron < -1 || lastNeuron >= int64(neurons),
			nd < 0 || nd > int64(t.h),
			hdr[3] > clock:
			return fmt.Errorf("core: implausible training table entry (offset %d, broken %d, neuron %d, %d deltas, last use %d)",
				lastOffset, broken, lastNeuron, nd, hdr[3])
		case i > 0 && hdr[3] <= prevUse:
			return fmt.Errorf("core: training table last use %d not above the previous entry's %d (duplicate or out of order)", hdr[3], prevUse)
		}
		prevUse = hdr[3]
		if fresh.find(hdr[0], hdr[1]) != 0 {
			return fmt.Errorf("core: duplicate training table entry (pc %#x, page %#x)", hdr[0], hdr[1])
		}
		e := fresh.Insert(hdr[0], hdr[1], int(lastOffset))
		e.footprint = hdr[2]
		e.broken, e.lastNeuron = int(broken), int(lastNeuron)
		if err := binary.Read(r, binary.LittleEndian, deltas[:nd]); err != nil {
			return fmt.Errorf("core: reading training table: %w", err)
		}
		e.deltas = e.deltas[:nd]
		for j, d := range deltas[:nd] {
			e.deltas[j] = int(d)
		}
	}
	*t = *fresh
	return nil
}

// LastOffset returns the last block offset touched in the page.
func (e *TrainingEntry) LastOffset() int { return e.lastOffset }

// LastNeuron returns the neuron that fired for the previous query, or -1.
func (e *TrainingEntry) LastNeuron() int { return e.lastNeuron }

// SetLastNeuron records the neuron that fired for the current query.
func (e *TrainingEntry) SetLastNeuron(n int) { e.lastNeuron = n }

// Label is one (delta, confidence) pair attached to a neuron.
type Label struct {
	// Delta is the predicted next within-page block delta.
	Delta int
	// Conf is a 3-bit saturating confidence counter (0..7). Zero means
	// the slot is free.
	Conf uint8
}

// ConfMax is the saturation value of the 3-bit confidence counters.
const ConfMax = 7

// InferenceTable maps each excitatory neuron to its label slots (§3.3,
// §3.4 "Multi-Degree Prefetching": one or two slots per neuron).
type InferenceTable struct {
	labels [][]Label // [neuron][slot]
}

// NewInferenceTable returns a table for the given neuron count with
// slotsPerNeuron label slots each (the paper evaluates 1 and 2).
func NewInferenceTable(neurons, slotsPerNeuron int) *InferenceTable {
	t := &InferenceTable{labels: make([][]Label, neurons)}
	for i := range t.labels {
		t.labels[i] = make([]Label, slotsPerNeuron)
	}
	return t
}

// Neurons returns the number of neurons the table covers.
func (t *InferenceTable) Neurons() int { return len(t.labels) }

// Labels returns the live labels (Conf > 0) of a neuron, highest
// confidence first.
func (t *InferenceTable) Labels(neuron int) []Label { return t.AppendLabels(nil, neuron) }

// AppendLabels appends Labels(neuron) to dst and returns the extended
// slice, so a caller with a scratch buffer allocates nothing.
func (t *InferenceTable) AppendLabels(dst []Label, neuron int) []Label {
	start := len(dst)
	for _, l := range t.labels[neuron] {
		if l.Conf > 0 {
			dst = append(dst, l)
		}
	}
	out := dst[start:]
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].Conf > out[k-1].Conf; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return dst
}

// Observe reconciles a neuron's labels with the actually observed next
// delta (§3.3, §3.4):
//
//   - a label matching the observation gains confidence;
//   - otherwise the observation claims a free slot with confidence 1
//     (this is how a neuron acquires its second label in the 2-label
//     configuration);
//   - otherwise the weakest label loses confidence and is erased when it
//     reaches zero, restarting label discovery.
func (t *InferenceTable) Observe(neuron, delta int) {
	slots := t.labels[neuron]
	for i := range slots {
		if slots[i].Conf > 0 && slots[i].Delta == delta {
			if slots[i].Conf < ConfMax {
				slots[i].Conf++
			}
			return
		}
	}
	for i := range slots {
		if slots[i].Conf == 0 {
			slots[i] = Label{Delta: delta, Conf: 1}
			return
		}
	}
	weakest := 0
	for i := range slots {
		if slots[i].Conf < slots[weakest].Conf {
			weakest = i
		}
	}
	slots[weakest].Conf--
	if slots[weakest].Conf == 0 {
		slots[weakest].Delta = 0
	}
}

// Reset clears all labels.
func (t *InferenceTable) Reset() {
	for i := range t.labels {
		for j := range t.labels[i] {
			t.labels[i][j] = Label{}
		}
	}
}
