package prefetch

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"pathfinder/internal/trace"
)

// acc builds an access to the given block number.
func acc(id, pc, block uint64) trace.Access {
	return trace.Access{ID: id, PC: pc, Addr: trace.BlockAddr(block)}
}

func TestNoPrefetchSuggestsNothing(t *testing.T) {
	var p NoPrefetch
	if got := p.Advise(acc(1, 1, 100), 2); got != nil {
		t.Errorf("NoPrefetch suggested %v", got)
	}
}

func TestNextLineSuggestsSequentialBlocks(t *testing.T) {
	p := &NextLine{}
	got := p.Advise(acc(1, 1, 100), 2)
	want := []uint64{trace.BlockAddr(101), trace.BlockAddr(102)}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("NextLine = %v, want %v", got, want)
	}
}

func TestNextLineDegreeOne(t *testing.T) {
	p := &NextLine{Degree: 1}
	got := p.Advise(acc(1, 1, 100), 2)
	if len(got) != 1 || got[0] != trace.BlockAddr(101) {
		t.Errorf("NextLine degree 1 = %v", got)
	}
}

func TestGenerateFileEnforcesBudget(t *testing.T) {
	p := &NextLine{} // would suggest `budget` blocks per access
	accs := []trace.Access{acc(1, 1, 10), acc(2, 1, 20)}
	pfs, err := GenerateFileCtx(context.Background(), p, accs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pfs) != 2 {
		t.Fatalf("got %d prefetches, want 2 (budget 1 x 2 accesses)", len(pfs))
	}
	for _, pf := range pfs {
		if pf.Addr%trace.BlockBytes != 0 {
			t.Errorf("prefetch addr %#x not block aligned", pf.Addr)
		}
	}
}

func TestGenerateFileIDsMatchTriggers(t *testing.T) {
	p := &NextLine{}
	accs := []trace.Access{acc(5, 1, 10), acc(9, 1, 20)}
	pfs, err := GenerateFileCtx(context.Background(), p, accs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, pf := range pfs {
		if pf.ID != 5 && pf.ID != 9 {
			t.Errorf("prefetch ID %d not a trigger ID", pf.ID)
		}
	}
}

func TestBestOffsetLearnsStride(t *testing.T) {
	p := NewBestOffset()
	// Feed a stride-3 stream long enough for a learning phase to finish.
	for i := uint64(0); i < 5000; i++ {
		p.Advise(acc(i+1, 1, i*3), 2)
	}
	if p.Best() != 3 {
		t.Errorf("BO learned offset %d, want 3", p.Best())
	}
	got := p.Advise(acc(9999, 1, 30000), 2)
	if len(got) != 2 || got[0] != trace.BlockAddr(30003) || got[1] != trace.BlockAddr(30006) {
		t.Errorf("BO suggestions = %v, want +3 and +6", got)
	}
}

func TestBestOffsetFallsBackToNextLineOnNoise(t *testing.T) {
	p := NewBestOffset()
	// A non-repeating stream scores nothing: BO must fall back to 1.
	for i := uint64(0); i < 20000; i++ {
		p.Advise(acc(i+1, 1, i*i*2654435761%(1<<30)), 2)
	}
	if p.Best() != 1 {
		t.Errorf("BO on noise selected %d, want 1", p.Best())
	}
}

func TestBestOffsetCandidateList(t *testing.T) {
	for _, d := range boOffsetList() {
		n := d
		for _, p := range []int{2, 3, 5} {
			for n%p == 0 {
				n /= p
			}
		}
		if n != 1 {
			t.Errorf("offset %d has prime factor other than 2,3,5", d)
		}
	}
}

func TestSPPLearnsDeltaPattern(t *testing.T) {
	p := NewSPP()
	// Constant delta 2 within pages.
	base := uint64(1 << 20)
	var got []uint64
	off := 0
	page := uint64(0)
	for i := 0; i < 3000; i++ {
		if off+2 >= trace.BlocksPerPage {
			page++
			off = 0
		} else {
			off += 2
		}
		got = p.Advise(trace.Access{ID: uint64(i + 1), PC: 7, Addr: base + page*trace.PageBytes + uint64(off)*trace.BlockBytes}, 2)
	}
	if len(got) == 0 {
		t.Fatal("SPP issued nothing on a pure delta-2 stream")
	}
	// The first suggestion should be +2 blocks from the last access.
	lastBlock := (base+page*trace.PageBytes)/trace.BlockBytes + uint64(off)
	if got[0] != trace.BlockAddr(lastBlock+2) {
		t.Errorf("SPP first suggestion %#x, want %#x", got[0], trace.BlockAddr(lastBlock+2))
	}
}

func TestSPPSilentWithoutConfidence(t *testing.T) {
	p := NewSPP()
	// Random offsets build no confident signature paths.
	issued := 0
	for i := 0; i < 2000; i++ {
		block := uint64(i*i*31) % (1 << 24)
		got := p.Advise(acc(uint64(i+1), 3, block), 2)
		issued += len(got)
	}
	if issued > 500 {
		t.Errorf("SPP issued %d prefetches on noise; expected selectivity", issued)
	}
}

func TestSPPRespectsPageBounds(t *testing.T) {
	p := NewSPP()
	for i := 0; i < 1000; i++ {
		off := (i * 7) % trace.BlocksPerPage
		got := p.Advise(trace.Access{ID: uint64(i + 1), PC: 1, Addr: uint64(off) * trace.BlockBytes}, 2)
		for _, g := range got {
			if g/trace.PageBytes != 0 {
				t.Fatalf("SPP crossed page boundary: %#x", g)
			}
		}
	}
}

func TestSISBLearnsTemporalChain(t *testing.T) {
	p := NewSISB()
	chain := []uint64{100, 5000, 42, 77777, 9, 100} // loops back to 100
	// Two passes to learn the chain, then check predictions.
	for pass := 0; pass < 2; pass++ {
		for i, b := range chain {
			p.Advise(acc(uint64(pass*10+i+1), 1, b), 2)
		}
	}
	got := p.Advise(acc(100, 1, 100), 2)
	if len(got) != 2 || got[0] != trace.BlockAddr(5000) || got[1] != trace.BlockAddr(42) {
		t.Errorf("SISB chain replay = %v, want [5000<<6 42<<6]", got)
	}
}

func TestSISBIsPCLocalized(t *testing.T) {
	p := NewSISB()
	// PC 1 sees 10 -> 20; PC 2 sees 10 -> 99. Predictions must not mix.
	p.Advise(acc(1, 1, 10), 2)
	p.Advise(acc(2, 1, 20), 2)
	p.Advise(acc(3, 2, 10), 2)
	p.Advise(acc(4, 2, 99), 2)
	got := p.Advise(acc(5, 1, 10), 2)
	if len(got) == 0 || got[0] != trace.BlockAddr(20) {
		t.Errorf("PC 1 successor = %v, want 20<<6", got)
	}
	got = p.Advise(acc(6, 2, 10), 2)
	if len(got) == 0 || got[0] != trace.BlockAddr(99) {
		t.Errorf("PC 2 successor = %v, want 99<<6", got)
	}
}

func TestPythiaLearnsConstantDelta(t *testing.T) {
	p := NewPythia(1)
	// Stride-1 within pages; Pythia should converge to positive deltas
	// and issue prefetches that frequently match the next access.
	base := uint64(1 << 22)
	hits, issued := 0, 0
	targets := make(map[uint64]bool)
	off, page := 0, uint64(0)
	for i := 0; i < 20000; i++ {
		if off+1 >= trace.BlocksPerPage {
			page++
			off = 0
		} else {
			off++
		}
		addr := base + page*trace.PageBytes + uint64(off)*trace.BlockBytes
		if targets[addr/trace.BlockBytes] {
			hits++
		}
		got := p.Advise(trace.Access{ID: uint64(i + 1), PC: 3, Addr: addr}, 2)
		issued += len(got)
		for _, g := range got {
			targets[g/trace.BlockBytes] = true
		}
	}
	if issued == 0 {
		t.Fatal("Pythia never issued a prefetch")
	}
	if hits < 5000 {
		t.Errorf("Pythia matched only %d/20000 next accesses on stride-1", hits)
	}
}

func TestPythiaIsAggressive(t *testing.T) {
	// Table 6: Pythia issues close to the full budget even on noise.
	p := NewPythia(2)
	issued := 0
	for i := 0; i < 5000; i++ {
		block := uint64(i*2654435761) % (1 << 26)
		issued += len(p.Advise(acc(uint64(i+1), 9, block), 2))
	}
	if issued < 5000 {
		t.Errorf("Pythia issued %d on 5000 noisy accesses; expected aggressiveness", issued)
	}
}

func TestEnsemblePriorityFill(t *testing.T) {
	// First member suggests one block; filler completes the budget.
	e := NewEnsemble(&NextLine{Degree: 1}, &fixedPrefetcher{blocks: []uint64{900, 901}})
	got := e.Advise(acc(1, 1, 100), 2)
	if len(got) != 2 {
		t.Fatalf("ensemble issued %d, want 2", len(got))
	}
	if got[0] != trace.BlockAddr(101) {
		t.Errorf("priority member not first: %v", got)
	}
	if got[1] != trace.BlockAddr(900) {
		t.Errorf("filler suggestion wrong: %v", got)
	}
}

func TestEnsembleDeduplicates(t *testing.T) {
	e := NewEnsemble(&NextLine{Degree: 1}, &NextLine{})
	got := e.Advise(acc(1, 1, 100), 2)
	if len(got) != 2 || got[0] == got[1] {
		t.Errorf("ensemble output %v has duplicates or wrong length", got)
	}
}

func TestEnsembleName(t *testing.T) {
	e := NewEnsemble(&NextLine{}, NewSISB())
	if e.Name() != "NextLine+SISB" {
		t.Errorf("Name() = %q", e.Name())
	}
	e.Label = "PF+NL+SISB"
	if e.Name() != "PF+NL+SISB" {
		t.Errorf("labelled Name() = %q", e.Name())
	}
}

// fixedPrefetcher always suggests the same blocks (test helper).
type fixedPrefetcher struct{ blocks []uint64 }

func (f *fixedPrefetcher) Name() string { return "fixed" }
func (f *fixedPrefetcher) Advise(trace.Access, int) []uint64 {
	out := make([]uint64, len(f.blocks))
	for i, b := range f.blocks {
		out[i] = trace.BlockAddr(b)
	}
	return out
}

func BenchmarkBestOffset(b *testing.B) {
	p := NewBestOffset()
	for i := 0; i < b.N; i++ {
		p.Advise(acc(uint64(i+1), 1, uint64(i*3)), 2)
	}
}

func BenchmarkSPP(b *testing.B) {
	p := NewSPP()
	for i := 0; i < b.N; i++ {
		p.Advise(acc(uint64(i+1), 1, uint64(i*2%(1<<24))), 2)
	}
}

func BenchmarkSISB(b *testing.B) {
	p := NewSISB()
	for i := 0; i < b.N; i++ {
		p.Advise(acc(uint64(i+1), 1, uint64(i%100000)), 2)
	}
}

func BenchmarkPythia(b *testing.B) {
	p := NewPythia(1)
	for i := 0; i < b.N; i++ {
		p.Advise(acc(uint64(i+1), 1, uint64(i)), 2)
	}
}

// TestGenerateFileStreamParity checks generation over a decoder-backed
// stream (encode -> stream-decode -> generate) is bit-identical to
// generation over the slice, including for a stateful learner.
func TestGenerateFileStreamParity(t *testing.T) {
	var accs []trace.Access
	for i := uint64(0); i < 4000; i++ {
		accs = append(accs, acc(i+1, i%7, i*3))
	}
	want, err := GenerateFileCtx(context.Background(), NewBestOffset(), accs, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, trace.NewSliceSource(accs)); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GenerateFileStreamCtx(context.Background(), NewBestOffset(), rd, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed prefetch file differs: %d vs %d prefetches", len(got), len(want))
	}
}

// TestGenerateFileStreamPropagatesError checks a mid-stream decode error
// aborts generation with the positioned error.
func TestGenerateFileStreamPropagatesError(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.Encode(&buf, trace.NewSliceSource([]trace.Access{acc(1, 1, 10), acc(2, 1, 20)})); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()-1]
	rd, err := trace.NewReader(bytes.NewReader(truncated))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateFileStreamCtx(context.Background(), &NextLine{}, rd, 2); err == nil {
		t.Fatal("generation swallowed a truncated stream")
	}
}

// lyingSource declares far more records than it yields, as a corrupt or
// hostile trace header can.
type lyingSource struct {
	trace.Source
	declared uint64
}

func (s lyingSource) Remaining() (uint64, bool) { return s.declared, true }

// TestGenerateFileStreamCapsPresize checks the output pre-size: a source
// declaring 4 Mi records but yielding 3 must reserve at most 1 Mi records
// × budget up front, the cap trace.Collect applies, not the declared
// count.
func TestGenerateFileStreamCapsPresize(t *testing.T) {
	accs := []trace.Access{acc(1, 1, 10), acc(2, 1, 20), acc(3, 1, 30)}
	src := lyingSource{Source: trace.NewSliceSource(accs), declared: 4 << 20}
	out, err := GenerateFileStreamCtx(context.Background(), &NextLine{}, src, 2)
	if err != nil {
		t.Fatal(err)
	}
	if limit := 2 << 20; cap(out) > limit {
		t.Fatalf("pre-sized %d prefetch slots for 3 records, want at most %d", cap(out), limit)
	}
}
