package prefetch

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pathfinder/internal/trace"
)

// scripted returns a fixed advice list per access, whatever the budget,
// and counts its Advise calls.
type scripted struct {
	advice  [][]uint64
	advised int
}

func (s *scripted) Name() string { return "Scripted" }

func (s *scripted) Advise(a trace.Access, budget int) []uint64 {
	out := s.advice[s.advised]
	s.advised++
	return out
}

// recordingVectors pin the encoding: per access a uvarint count, then each
// address as a zigzag varint of its byte offset from the access's block.
var recordingVectors = []struct {
	name   string
	addr   uint64
	advice []uint64
	want   []byte
}{
	{"no advice", 0x1040, nil, []byte{0x00}},
	{"next and previous block", 0x1040, []uint64{0x1080, 0x1000}, []byte{0x02, 0x80, 0x01, 0x7f}},
	{"same block from inside it", 0x107f, []uint64{0x1040}, []byte{0x01, 0x00}},
	{"last block of the page", 0x0, []uint64{0xfc0}, []byte{0x01, 0x80, 0x3f}},
	{"unaligned address", 0x1000, []uint64{0x1001}, []byte{0x01, 0x02}},
	{"top of the address space", 0x0, []uint64{1<<64 - 1}, []byte{0x01, 0x01}},
	{"three past a budget of two", 0x40, []uint64{0x80, 0xc0, 0x100}, []byte{0x03, 0x80, 0x01, 0x80, 0x02, 0x80, 0x03}},
}

// TestRecordingVectors checks each known access's bytes and that a replay
// of them gives the recorded advice back.
func TestRecordingVectors(t *testing.T) {
	for _, v := range recordingVectors {
		a := trace.Access{ID: 1, Addr: v.addr}
		rec, err := Record(context.Background(), &scripted{advice: [][]uint64{v.advice}}, trace.NewSliceSource([]trace.Access{a}), Budget)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if !bytes.Equal(rec.data, v.want) {
			t.Errorf("%s: recorded % x, want % x", v.name, rec.data, v.want)
		}
		rep := NewReplay("Scripted", rec)
		if got := rep.Advise(a, Budget); !reflect.DeepEqual(got, v.advice) {
			t.Errorf("%s: replayed %#x, want %#x", v.name, got, v.advice)
		}
		if err := rep.Finish(); err != nil {
			t.Errorf("%s: %v", v.name, err)
		}
	}
}

// TestRecordReplayExact replays random advice over random accesses: every
// call returns exactly what the recorded prefetcher returned.
func TestRecordReplayExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	accs := make([]trace.Access, 5000)
	advice := make([][]uint64, len(accs))
	for i := range accs {
		accs[i] = trace.Access{ID: uint64(i + 1), PC: 0x400000, Addr: rng.Uint64() >> uint(rng.Intn(64))}
		for k := rng.Intn(5); k > 0; k-- {
			advice[i] = append(advice[i], accs[i].Addr+uint64(rng.Intn(8192))-4096)
		}
		if rng.Intn(16) == 0 {
			advice[i] = append(advice[i], rng.Uint64())
		}
	}
	rec, err := Record(context.Background(), &scripted{advice: advice}, trace.NewSliceSource(accs), 3)
	if err != nil {
		t.Fatal(err)
	}
	if rec.accesses != len(accs) {
		t.Fatalf("recorded %d accesses, want %d", rec.accesses, len(accs))
	}
	rep := NewReplay("Scripted", rec)
	for i, a := range accs {
		if got := rep.Advise(a, 3); !reflect.DeepEqual(got, advice[i]) {
			t.Fatalf("access %d: replayed %#x, want %#x", i, got, advice[i])
		}
	}
	if err := rep.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayOutOfStep checks that a replay advised past its recording, at
// another budget, or stopped short of it reports the error and gives no
// advice once out of step.
func TestReplayOutOfStep(t *testing.T) {
	accs := benchAccesses(64)
	advice := make([][]uint64, len(accs))
	for i, a := range accs {
		advice[i] = []uint64{trace.BlockAddr(a.Block() + 1)}
	}
	rec, err := Record(context.Background(), &scripted{advice: advice}, trace.NewSliceSource(accs), Budget)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func(r *Replay)
		want string
	}{
		{"past the end", func(r *Replay) {
			for _, a := range accs {
				r.Advise(a, Budget)
			}
			if got := r.Advise(accs[0], Budget); got != nil {
				t.Errorf("past the end: replayed %#x", got)
			}
		}, "past its recording of 64"},
		{"other budget", func(r *Replay) {
			r.Advise(accs[0], Budget)
			r.Advise(accs[1], Budget+1)
			if got := r.Advise(accs[2], Budget); got != nil {
				t.Errorf("after a budget change: replayed %#x", got)
			}
		}, "budget 3, recorded at 2"},
		{"short", func(r *Replay) {
			for _, a := range accs[:10] {
				r.Advise(a, Budget)
			}
		}, "after 10 of 64"},
	} {
		rep := NewReplay("Scripted", rec)
		tc.run(rep)
		if err := rep.Finish(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Finish = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestReplayZeroAlloc pins the replay's steady state at zero allocations.
func TestReplayZeroAlloc(t *testing.T) {
	accs := benchAccesses(4096)
	rec, err := Record(context.Background(), NewSPP(), trace.NewSliceSource(accs), Budget)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplay("SPP", rec)
	for _, a := range accs[:64] {
		rep.Advise(a, Budget)
	}
	i := 64
	if avg := testing.AllocsPerRun(400, func() {
		rep.Advise(accs[i], Budget)
		i++
	}); avg != 0 {
		t.Errorf("Replay.Advise allocates %.2f/op, want 0", avg)
	}
}

// TestShared checks the stand-in: its name needs no build, SharedMember
// finds it alone or as a composite member, unbound it builds and advises
// its live member, and bound it advises with the replay instead.
func TestShared(t *testing.T) {
	builds := 0
	newShared := func() *Shared {
		return NewShared("SPP", "spp", func() (Prefetcher, error) {
			builds++
			return NewSPP(), nil
		})
	}
	s := newShared()
	if s.Name() != "SPP" || s.Key() != "spp" || builds != 0 {
		t.Fatalf("NewShared: name %q key %q after %d builds", s.Name(), s.Key(), builds)
	}
	for _, p := range []Prefetcher{s, NewEnsemble(&NextLine{}, s), NewDynamicEnsemble(s, NewSISB())} {
		if got := SharedMember(p); got != s {
			t.Errorf("SharedMember(%s) = %v", p.Name(), got)
		}
	}
	for _, p := range []Prefetcher{NewSPP(), NewEnsemble(NewSPP(), &NextLine{}), NewThrottle(s)} {
		if got := SharedMember(p); got != nil {
			t.Errorf("SharedMember(%s) = %v, want nil", p.Name(), got)
		}
	}

	accs := benchAccesses(2048)
	live := NewSPP()
	rec, err := Record(context.Background(), newShared(), trace.NewSliceSource(accs), Budget)
	if err != nil {
		t.Fatal(err)
	}
	bound := newShared()
	rep := NewReplay(bound.Name(), rec)
	bound.Use(rep)
	builds = 0
	for i, a := range accs {
		want := live.Advise(a, Budget)
		if got := s.Advise(a, Budget); !reflect.DeepEqual(got, want) {
			t.Fatalf("access %d: unbound Shared advised %#x, live %#x", i, got, want)
		}
		if got := bound.Advise(a, Budget); !reflect.DeepEqual(got, want) {
			t.Fatalf("access %d: bound Shared advised %#x, live %#x", i, got, want)
		}
	}
	if builds != 1 {
		t.Errorf("%d builds, want 1 (the unbound stand-in's)", builds)
	}
	if err := rep.Finish(); err != nil {
		t.Fatal(err)
	}
}
