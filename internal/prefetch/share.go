package prefetch

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"

	"pathfinder/internal/trace"
)

// Shared stands in for a prefetcher whose advice depends only on how it
// is built, which Key names, and on the accesses and budget it is advised
// with. The composites pass their members every access unchanged, so one
// live copy advised once over a trace at a budget gives the advice of
// every Shared of the same key on that trace and budget: an evaluation
// engine may Record that copy once and bind each stand-in to a Replay of
// the recording with Use. A Shared that is never bound builds its live
// prefetcher on first Advise and is advised for real.
type Shared struct {
	name, key string
	build     func() (Prefetcher, error)
	p         Prefetcher
}

// NewShared returns a stand-in named name for the prefetcher build makes.
// key must determine the built prefetcher's behaviour completely, and
// build may fail only through a bug: an unbound stand-in builds in Advise,
// which can report the failure only as a panic.
func NewShared(name, key string, build func() (Prefetcher, error)) *Shared {
	return &Shared{name: name, key: key, build: build}
}

// Name implements Prefetcher without building the member.
func (s *Shared) Name() string { return s.name }

// Key identifies the member's construction.
func (s *Shared) Key() string { return s.key }

// Build returns a fresh live copy of the member.
func (s *Shared) Build() (Prefetcher, error) { return s.build() }

// Use binds the stand-in to p, typically a Replay, before its first
// Advise.
func (s *Shared) Use(p Prefetcher) { s.p = p }

// Advise implements Prefetcher with the bound prefetcher. An unbound
// stand-in builds its live member here and panics if that fails, as
// Advise cannot return the error.
func (s *Shared) Advise(a trace.Access, budget int) []uint64 {
	if s.p == nil {
		p, err := s.build()
		if err != nil {
			panic(fmt.Sprintf("prefetch: building shared %s: %v", s.name, err))
		}
		s.p = p
	}
	return s.p.Advise(a, budget)
}

// SharedMember returns the stand-in p is, or the first one among the
// members of an Ensemble or DynamicEnsemble p is; nil when there is none.
func SharedMember(p Prefetcher) *Shared {
	var members []Prefetcher
	switch p := p.(type) {
	case *Shared:
		return p
	case *Ensemble:
		members = p.Members
	case *DynamicEnsemble:
		members = p.Members
	}
	for _, m := range members {
		if s, ok := m.(*Shared); ok {
			return s
		}
	}
	return nil
}

// Recording is the advice one prefetcher gave over one trace at one
// budget, access by access and untruncated. Per access it holds a uvarint
// count, then each address as a zigzag varint of its byte offset from the
// access's block address: exact for any address, one byte for an access
// without advice and one or two per in-page suggestion. A Recording is
// immutable, so any number of Replays may read it concurrently.
type Recording struct {
	data     []byte
	accesses int
	budget   int
}

// Record advises p over src at budget and records every result.
func Record(ctx context.Context, p Prefetcher, src trace.Source, budget int) (*Recording, error) {
	rec := &Recording{budget: budget}
	if n, ok := trace.Presize(src); ok {
		rec.data = make([]byte, 0, n)
	}
	var a trace.Access
	for i := 0; ; i++ {
		if i&2047 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if err := src.Next(&a); err != nil {
			if err == io.EOF {
				return rec, nil
			}
			return nil, err
		}
		addrs := p.Advise(a, budget)
		rec.data = binary.AppendUvarint(rec.data, uint64(len(addrs)))
		base := a.Addr &^ (trace.BlockBytes - 1)
		for _, addr := range addrs {
			rec.data = binary.AppendVarint(rec.data, int64(addr-base))
		}
		rec.accesses++
	}
}

// Replay advises from a Recording: on the i-th Advise it returns exactly
// the addresses the recorded prefetcher returned on the i-th access. Out
// of step — advised past the recording's end or at another budget — it
// returns nil from then on and Finish reports the error, so a caller never
// takes wrong advice for right. The returned slice is reused across calls
// and valid only until the next Advise.
type Replay struct {
	name string
	rec  *Recording
	pos  int // read offset into rec.data
	n    int // accesses replayed
	err  error
	buf  []uint64
}

// NewReplay returns a replay of rec that reports name.
func NewReplay(name string, rec *Recording) *Replay {
	return &Replay{name: name, rec: rec}
}

// Name implements Prefetcher.
func (r *Replay) Name() string { return r.name }

// Advise implements Prefetcher.
func (r *Replay) Advise(a trace.Access, budget int) []uint64 {
	switch {
	case r.err != nil:
		return nil
	case r.n == r.rec.accesses:
		r.err = fmt.Errorf("prefetch: %s replay advised past its recording of %d accesses", r.name, r.rec.accesses)
		return nil
	case budget != r.rec.budget:
		r.err = fmt.Errorf("prefetch: %s replay advised at budget %d, recorded at %d", r.name, budget, r.rec.budget)
		return nil
	}
	r.n++
	count, w := binary.Uvarint(r.rec.data[r.pos:])
	r.pos += w
	if count == 0 {
		return nil
	}
	base := a.Addr &^ (trace.BlockBytes - 1)
	out := r.buf[:0]
	for ; count > 0; count-- {
		off, w := binary.Varint(r.rec.data[r.pos:])
		r.pos += w
		out = append(out, base+uint64(off))
	}
	r.buf = out
	return out
}

// Finish reports whether the replay stayed in step with its recording:
// nil only when it was advised exactly once per recorded access, at the
// recorded budget.
func (r *Replay) Finish() error {
	if r.err == nil && r.n < r.rec.accesses {
		r.err = fmt.Errorf("prefetch: %s replay stopped after %d of %d recorded accesses", r.name, r.n, r.rec.accesses)
	}
	return r.err
}
