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
	"sort"
)

// TrainingEntry is one (PC, page) stream tracked by the Training Table.
type TrainingEntry struct {
	pc, page uint64
	// lastOffset is the most recent block offset touched in the page.
	lastOffset int
	// deltas is the most recent delta history, oldest first; len grows
	// up to the configured H.
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
	// lastUse orders entries for LRU replacement.
	lastUse uint64
}

// TrainingTable is the (PC, page)-indexed CAM of §3.3, with LRU
// replacement. The paper sizes it at 1K 120-bit rows.
type TrainingTable struct {
	entries map[trainingKey]*TrainingEntry
	cap     int
	h       int
	clock   uint64
}

type trainingKey struct {
	pc, page uint64
}

// NewTrainingTable returns a table with the given capacity (entries) and
// history length H.
func NewTrainingTable(capacity, h int) *TrainingTable {
	if capacity <= 0 {
		capacity = 1024
	}
	return &TrainingTable{
		entries: make(map[trainingKey]*TrainingEntry, capacity),
		cap:     capacity,
		h:       h,
	}
}

// Len returns the number of live entries.
func (t *TrainingTable) Len() int { return len(t.entries) }

// Lookup finds the entry for (pc, page), if present, refreshing its LRU
// position.
func (t *TrainingTable) Lookup(pc, page uint64) (*TrainingEntry, bool) {
	t.clock++
	e, ok := t.entries[trainingKey{pc, page}]
	if ok {
		e.lastUse = t.clock
	}
	return e, ok
}

// Insert allocates an entry for (pc, page) with the given first offset,
// evicting the LRU entry if the table is full.
func (t *TrainingTable) Insert(pc, page uint64, offset int) *TrainingEntry {
	t.clock++
	if len(t.entries) >= t.cap {
		t.evictLRU()
	}
	e := &TrainingEntry{
		pc:         pc,
		page:       page,
		lastOffset: offset,
		footprint:  1 << uint(offset),
		deltas:     make([]int, 0, t.h),
		lastNeuron: -1,
		lastUse:    t.clock,
	}
	t.entries[trainingKey{pc, page}] = e
	return e
}

func (t *TrainingTable) evictLRU() {
	var victim trainingKey
	var oldest uint64 = ^uint64(0)
	for k, e := range t.entries {
		if e.lastUse < oldest {
			oldest = e.lastUse
			victim = k
		}
	}
	delete(t.entries, victim)
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

// save writes the table's live entries in LRU order (lastUse stamps are
// unique — the clock advances on every touch — so the order, and with it
// the byte stream, is deterministic). Part of the SaveSession extension;
// see serialize.go.
func (t *TrainingTable) save(w io.Writer) error {
	ents := make([]*TrainingEntry, 0, len(t.entries))
	for _, e := range t.entries {
		ents = append(ents, e)
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].lastUse < ents[j].lastUse })
	if err := binary.Write(w, binary.LittleEndian, t.clock); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, int64(len(ents))); err != nil {
		return err
	}
	for _, e := range ents {
		hdr := []uint64{e.pc, e.page, e.footprint, e.lastUse}
		for _, v := range hdr {
			if err := binary.Write(w, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		ints := []int64{int64(e.lastOffset), int64(e.broken), int64(e.lastNeuron), int64(len(e.deltas))}
		for _, v := range ints {
			if err := binary.Write(w, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		for _, d := range e.deltas {
			if err := binary.Write(w, binary.LittleEndian, int64(d)); err != nil {
				return err
			}
		}
	}
	return nil
}

// load replaces the table's contents with a stream written by save,
// validating every field against the table's own geometry before any
// allocation (a corrupt snapshot must fail loudly, never OOM or corrupt
// the restored stream state). save writes unique lastUse stamps in
// ascending order, and load requires exactly that: with duplicate stamps
// both the next save's byte order and evictLRU's victim would depend on
// map iteration order.
func (t *TrainingTable) load(r io.Reader) error {
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
	entries := make(map[trainingKey]*TrainingEntry, count)
	var prevUse uint64
	for i := int64(0); i < count; i++ {
		var hdr [4]uint64
		for j := range hdr {
			if err := binary.Read(r, binary.LittleEndian, &hdr[j]); err != nil {
				return fmt.Errorf("core: reading training table: %w", err)
			}
		}
		var ints [4]int64
		for j := range ints {
			if err := binary.Read(r, binary.LittleEndian, &ints[j]); err != nil {
				return fmt.Errorf("core: reading training table: %w", err)
			}
		}
		lastOffset, broken, lastNeuron, nd := ints[0], ints[1], ints[2], ints[3]
		switch {
		case lastOffset < 0 || lastOffset > 63,
			broken < 0 || broken > int64(t.h),
			lastNeuron < -1 || lastNeuron >= maxLoadNeurons,
			nd < 0 || nd > int64(t.h),
			hdr[3] > clock:
			return fmt.Errorf("core: implausible training table entry (offset %d, broken %d, neuron %d, %d deltas, lastUse %d)",
				lastOffset, broken, lastNeuron, nd, hdr[3])
		case i > 0 && hdr[3] <= prevUse:
			return fmt.Errorf("core: training table lastUse %d not above the previous entry's %d (duplicate or out of order)", hdr[3], prevUse)
		}
		prevUse = hdr[3]
		e := &TrainingEntry{
			pc: hdr[0], page: hdr[1], footprint: hdr[2], lastUse: hdr[3],
			lastOffset: int(lastOffset), broken: int(broken), lastNeuron: int(lastNeuron),
			deltas: make([]int, nd, t.h),
		}
		for j := range e.deltas {
			var d int64
			if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
				return fmt.Errorf("core: reading training table: %w", err)
			}
			e.deltas[j] = int(d)
		}
		k := trainingKey{e.pc, e.page}
		if _, dup := entries[k]; dup {
			return fmt.Errorf("core: duplicate training table entry (pc %#x, page %#x)", e.pc, e.page)
		}
		entries[k] = e
	}
	t.entries, t.clock = entries, clock
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
func (t *InferenceTable) Labels(neuron int) []Label {
	var out []Label
	for _, l := range t.labels[neuron] {
		if l.Conf > 0 {
			out = append(out, l)
		}
	}
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].Conf > out[k-1].Conf; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
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
