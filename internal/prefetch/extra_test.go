package prefetch

import (
	"testing"

	"pathfinder/internal/trace"
)

func TestStrideLearnsPCStride(t *testing.T) {
	p := NewStride()
	// PC 1 strides by 4 blocks; PC 2 strides by 7. Predictions must not mix.
	// Advise results are valid only until the next call, so copy got1.
	var got1, got2 []uint64
	for i := uint64(0); i < 20; i++ {
		got1 = append(got1[:0], p.Advise(acc(2*i+1, 1, 100+4*i), 2)...)
		got2 = p.Advise(acc(2*i+2, 2, 5000+7*i), 2)
	}
	if len(got1) != 2 || got1[0] != trace.BlockAddr(100+4*19+4) || got1[1] != trace.BlockAddr(100+4*19+8) {
		t.Errorf("PC1 suggestions %v", got1)
	}
	if len(got2) != 2 || got2[0] != trace.BlockAddr(5000+7*19+7) {
		t.Errorf("PC2 suggestions %v", got2)
	}
}

func TestStrideNeedsConfidence(t *testing.T) {
	p := NewStride()
	p.Advise(acc(1, 1, 100), 2) // allocate
	got := p.Advise(acc(2, 1, 104), 2)
	if got != nil {
		t.Errorf("prefetched after a single stride observation: %v", got)
	}
	p.Advise(acc(3, 1, 108), 2)
	if got = p.Advise(acc(4, 1, 112), 2); len(got) == 0 {
		t.Error("no prefetch after confirmed stride")
	}
}

func TestStrideSilentOnNoise(t *testing.T) {
	p := NewStride()
	issued := 0
	for i := uint64(0); i < 1000; i++ {
		issued += len(p.Advise(acc(i+1, 1, (i*i*2654435761)%(1<<24)), 2))
	}
	if issued > 50 {
		t.Errorf("stride issued %d prefetches on noise", issued)
	}
}

// TestLRUCapsNeverPanic pins that no bound on an LRU table panics, even
// one at or below zero: the bounded-table idiom then evicts whatever is
// oldest, possibly nothing, before every insert.
func TestLRUCapsNeverPanic(t *testing.T) {
	for _, bound := range []int{0, -1, 1} {
		spp, vldp, sms := NewSPP(), NewVLDP(), NewSMS()
		stride, np, isb := NewStride(), NewNextPage(), NewISB()
		spp.sigCap, vldp.dhbCap, sms.ActiveCap = bound, bound, bound
		stride.cap, np.cap, isb.Cap = bound, bound, bound
		for i := uint64(0); i < 200; i++ {
			a := acc(i+1, i%3, i*i%97*trace.BlocksPerPage+i%7)
			for _, p := range []Prefetcher{spp, vldp, sms, stride, np, isb} {
				p.Advise(a, 2)
			}
		}
		if bound == 1 && (spp.sig.Len() != 1 || sms.active.Len() != 1 || isb.ps.Len() != 1) {
			t.Errorf("bound 1: tables hold %d/%d/%d entries", spp.sig.Len(), sms.active.Len(), isb.ps.Len())
		}
	}
}

func TestStrideTableEviction(t *testing.T) {
	p := NewStride()
	p.cap = 4
	for pc := uint64(0); pc < 20; pc++ {
		p.Advise(acc(pc+1, pc, pc*100), 2)
	}
	if p.table.Len() > 4 {
		t.Errorf("table grew to %d entries, cap 4", p.table.Len())
	}
}

func TestVLDPLearnsDeltaSequence(t *testing.T) {
	p := NewVLDP()
	// Pattern {1, 2, 3} within pages.
	var got []uint64
	off, page := 0, uint64(0)
	pat := []int{1, 2, 3}
	for i := 0; i < 2000; i++ {
		d := pat[i%3]
		if off+d >= trace.BlocksPerPage {
			page++
			off = 0
		} else {
			off += d
		}
		got = p.Advise(trace.Access{ID: uint64(i + 1), PC: 1, Addr: page*trace.PageBytes + uint64(off)*trace.BlockBytes}, 2)
	}
	if len(got) == 0 {
		t.Fatal("VLDP issued nothing on a repeating delta pattern")
	}
	// Predictions chain: after seeing ... the next two pattern deltas.
	next := off + pat[2000%3]
	if int64(got[0]) != int64(page*trace.PageBytes)+int64(next)*trace.BlockBytes {
		t.Errorf("first suggestion %#x, want offset %d on page %d", got[0], next, page)
	}
}

func TestVLDPPrefersLongerHistory(t *testing.T) {
	p := NewVLDP()
	// Two contexts ending in delta 2: {1,2}->5 and {3,2}->7. A
	// single-delta table cannot separate them; the two-delta table can.
	page, id := uint64(0), uint64(0)
	feed := func(offs ...int) {
		for _, o := range offs {
			id++
			p.Advise(trace.Access{ID: id, PC: 1, Addr: page*trace.PageBytes + uint64(o)*trace.BlockBytes}, 2)
		}
		page++
	}
	for i := 0; i < 30; i++ {
		feed(0, 1, 3, 8)  // deltas 1,2 -> 5
		feed(0, 3, 5, 12) // deltas 3,2 -> 7
	}
	// Query context {1,2}: expect +5 to be the top suggestion.
	got := func() []uint64 {
		var out []uint64
		for _, o := range []int{0, 1, 3} {
			id++
			out = p.Advise(trace.Access{ID: id, PC: 1, Addr: page*trace.PageBytes + uint64(o)*trace.BlockBytes}, 2)
		}
		return out
	}()
	if len(got) == 0 {
		t.Fatal("no suggestion for trained context")
	}
	if got[0] != trace.BlockAddr(page*trace.BlocksPerPage+8) {
		t.Errorf("context {1,2} suggested %#x, want offset 8", got[0])
	}
}

func TestSMSLearnsFootprint(t *testing.T) {
	p := NewSMS()
	p.ActiveCap = 1 // force generations to end as soon as a new page triggers
	// Region footprint: trigger at offset 4 (PC 9), then touches at 6, 10, 20.
	id := uint64(0)
	touch := func(page uint64, off int) []uint64 {
		id++
		return p.Advise(trace.Access{ID: id, PC: 9, Addr: page*trace.PageBytes + uint64(off)*trace.BlockBytes}, 4)
	}
	for page := uint64(0); page < 4; page++ {
		touch(page, 4)
		touch(page, 6)
		touch(page, 10)
		touch(page, 20)
	}
	// New page, same trigger: the learned footprint should replay.
	got := touch(99, 4)
	if len(got) == 0 {
		t.Fatal("SMS replayed nothing for a learned trigger")
	}
	want := map[uint64]bool{
		trace.BlockAddr(99*trace.BlocksPerPage + 6):  true,
		trace.BlockAddr(99*trace.BlocksPerPage + 10): true,
		trace.BlockAddr(99*trace.BlocksPerPage + 20): true,
	}
	for _, g := range got {
		if !want[g] {
			t.Errorf("unexpected suggestion %#x", g)
		}
	}
}

func TestSMSNearestFirst(t *testing.T) {
	p := NewSMS()
	p.ActiveCap = 1
	id := uint64(0)
	touch := func(page uint64, off int, budget int) []uint64 {
		id++
		return p.Advise(trace.Access{ID: id, PC: 9, Addr: page*trace.PageBytes + uint64(off)*trace.BlockBytes}, budget)
	}
	for page := uint64(0); page < 3; page++ {
		touch(page, 10, 4)
		touch(page, 12, 4)
		touch(page, 40, 4)
	}
	got := touch(50, 10, 1)
	if len(got) != 1 || got[0] != trace.BlockAddr(50*trace.BlocksPerPage+12) {
		t.Errorf("budget-1 replay = %v, want nearest block (offset 12)", got)
	}
}

func TestDynamicEnsembleLearnsBestMember(t *testing.T) {
	// Member A (next-line) is right on a sequential stream; member B
	// (fixed junk) never is. The dynamic ensemble should rank A first.
	junk := &fixedPrefetcher{blocks: []uint64{1 << 40}}
	d := NewDynamicEnsemble(junk, &NextLine{})
	for i := uint64(0); i < 2000; i++ {
		d.Advise(acc(i+1, 1, 1000+i), 2)
	}
	s := d.Scores()
	if s[1] <= s[0] {
		t.Errorf("next-line score %.1f not above junk score %.1f", s[1], s[0])
	}
	// With the order learned, next-line's suggestion comes first.
	got := d.Advise(acc(9999, 1, 5000), 2)
	if len(got) == 0 || got[0] != trace.BlockAddr(5001) {
		t.Errorf("priority member not first: %v", got)
	}
}

func TestDynamicEnsembleName(t *testing.T) {
	d := NewDynamicEnsemble(&NextLine{}, NewSISB())
	if d.Name() != "Dyn[NextLine+SISB]" {
		t.Errorf("Name() = %q", d.Name())
	}
	d.Label = "custom"
	if d.Name() != "custom" {
		t.Errorf("labelled Name() = %q", d.Name())
	}
}

func TestDynamicEnsembleRespectsBudget(t *testing.T) {
	d := NewDynamicEnsemble(&NextLine{}, &NextLine{}, NewSISB())
	for i := uint64(0); i < 100; i++ {
		if got := d.Advise(acc(i+1, 1, i*3), 2); len(got) > 2 {
			t.Fatalf("budget exceeded: %v", got)
		}
	}
}

func TestDynamicEnsemblePendingBounded(t *testing.T) {
	d := NewDynamicEnsemble(&NextLine{})
	for i := uint64(0); i < 10_000; i++ {
		d.Advise(acc(i+1, 1, i*17%(1<<22)), 2)
	}
	if d.pending.Len() > 4*d.Window {
		t.Errorf("pending table grew to %d entries", d.pending.Len())
	}
}

func BenchmarkVLDP(b *testing.B) {
	p := NewVLDP()
	for i := 0; i < b.N; i++ {
		p.Advise(acc(uint64(i+1), 1, uint64(i*2%(1<<24))), 2)
	}
}

func BenchmarkSMS(b *testing.B) {
	p := NewSMS()
	for i := 0; i < b.N; i++ {
		p.Advise(acc(uint64(i+1), 1, uint64(i*3%(1<<24))), 2)
	}
}

func TestNextPagePredictsColdPage(t *testing.T) {
	p := NewNextPage()
	// PC 7 enters pages 10, 11, 12, ... always first touching offset 5.
	var got []uint64
	for i := uint64(0); i < 10; i++ {
		page := 10 + i
		got = p.Advise(trace.Access{ID: i + 1, PC: 7, Addr: page*trace.PageBytes + 5*trace.BlockBytes}, 2)
	}
	if len(got) == 0 {
		t.Fatal("NextPage predicted nothing after a stable page stride")
	}
	want := trace.BlockAddr(20*trace.BlocksPerPage + 5)
	if got[0] != want {
		t.Errorf("prediction %#x, want first block of next page %#x", got[0], want)
	}
}

func TestNextPageIgnoresWithinPage(t *testing.T) {
	p := NewNextPage()
	p.Advise(acc(1, 7, 640), 2) // page 10
	for i := uint64(2); i < 10; i++ {
		if got := p.Advise(trace.Access{ID: i, PC: 7, Addr: 10*trace.PageBytes + uint64(i)*trace.BlockBytes}, 2); got != nil {
			t.Fatalf("within-page access produced prediction %v", got)
		}
	}
}

func TestNextPageNeedsStableStride(t *testing.T) {
	p := NewNextPage()
	pages := []uint64{10, 25, 11, 90, 3} // no stable stride
	issued := 0
	for i, pg := range pages {
		issued += len(p.Advise(trace.Access{ID: uint64(i + 1), PC: 7, Addr: pg * trace.PageBytes}, 2))
	}
	if issued != 0 {
		t.Errorf("issued %d predictions without a stable page stride", issued)
	}
}

func TestISBLearnsTemporalChain(t *testing.T) {
	p := NewISB()
	chain := []uint64{100, 5000, 42, 77777, 9}
	for pass := 0; pass < 3; pass++ {
		for i, b := range chain {
			p.Advise(acc(uint64(pass*10+i+1), 1, b), 2)
		}
	}
	got := p.Advise(acc(100, 1, 100), 2)
	if len(got) != 2 || got[0] != trace.BlockAddr(5000) || got[1] != trace.BlockAddr(42) {
		t.Errorf("ISB chain replay = %v, want [5000<<6 42<<6]", got)
	}
}

func TestISBBoundedMetadata(t *testing.T) {
	p := NewISB()
	p.Cap = 64
	for i := uint64(0); i < 10_000; i++ {
		p.Advise(acc(i+1, 1, i), 2)
	}
	if p.ps.Len() > 64 || p.sp.Len() > 64+1 {
		t.Errorf("metadata grew beyond cap: ps=%d sp=%d", p.ps.Len(), p.sp.Len())
	}
}

func TestISBStructuralConsistency(t *testing.T) {
	// Invariant: ps and sp are inverse mappings.
	p := NewISB()
	for i := uint64(0); i < 3000; i++ {
		p.Advise(acc(i+1, i%4, (i*2654435761)%(1<<16)), 2)
	}
	p.ps.Range(func(phys uint64, str *uint64) bool {
		back := p.sp.Get(*str)
		if back == nil || *back != phys {
			t.Fatalf("ps/sp inconsistent: phys %d -> str %d -> %v", phys, *str, back)
		}
		return true
	})
	p.sp.Range(func(str uint64, physp *uint64) bool {
		fwd := p.ps.Peek(*physp)
		if fwd == nil || *fwd != str {
			t.Fatalf("sp/ps inconsistent: str %d -> phys %d -> %v", str, *physp, fwd)
		}
		return true
	})
}

func TestISBWeakerThanSISBWhenBounded(t *testing.T) {
	// With a tiny metadata budget, the realistic ISB covers less of a long
	// temporal loop than the idealized (unbounded) SISB.
	loop := make([]uint64, 2000)
	for i := range loop {
		loop[i] = uint64(i*2654435761) % (1 << 30)
	}
	run := func(p Prefetcher) int {
		hits := 0
		pending := map[uint64]bool{}
		id := uint64(0)
		for pass := 0; pass < 3; pass++ {
			for _, b := range loop {
				id++
				if pending[trace.BlockAddr(b)] {
					hits++
				}
				got := p.Advise(acc(id, 1, b), 2)
				pending = map[uint64]bool{}
				for _, g := range got {
					pending[g] = true
				}
			}
		}
		return hits
	}
	isb := NewISB()
	isb.Cap = 256 // far smaller than the loop
	bounded := run(isb)
	unbounded := run(NewSISB())
	if bounded >= unbounded {
		t.Errorf("bounded ISB hits %d >= idealized SISB hits %d", bounded, unbounded)
	}
	if unbounded < 3000 {
		t.Errorf("idealized SISB hits %d; expected near-full coverage after pass 1", unbounded)
	}
}

func TestPythiaConfigurable(t *testing.T) {
	cfg := DefaultPythiaConfig(3)
	cfg.Actions = []int{0, 1}
	cfg.Features = []PythiaFeature{FeaturePCOffset, FeatureDeltaPath}
	cfg.Epsilon = 0
	p := NewPythiaWithConfig(cfg)
	issued := 0
	for i := uint64(0); i < 3000; i++ {
		issued += len(p.Advise(acc(i+1, 1, 100+i), 2))
	}
	if issued == 0 {
		t.Error("configured Pythia never issued")
	}
}

func TestPythiaDefaultsFilled(t *testing.T) {
	p := NewPythiaWithConfig(PythiaConfig{Seed: 1})
	if len(p.cfg.Actions) == 0 || len(p.cfg.Features) == 0 || p.cfg.States == 0 {
		t.Errorf("defaults not filled: %+v", p.cfg)
	}
}

func TestThrottleSilencesInaccuratePrefetcher(t *testing.T) {
	junk := &fixedPrefetcher{blocks: []uint64{1 << 40}} // never right
	th := NewThrottle(junk)
	issued := 0
	for i := uint64(0); i < 4000; i++ {
		issued += len(th.Advise(acc(i+1, 1, i*3), 2))
	}
	level, log := th.Level()
	if level != 2 {
		t.Errorf("level = %d, want 2 (silenced); log %v", level, log)
	}
	// Only the first epoch-ish worth of junk should have escaped.
	if issued > 3*th.Epoch {
		t.Errorf("issued %d junk prefetches; throttle too permissive", issued)
	}
}

func TestThrottleKeepsAccuratePrefetcherOpen(t *testing.T) {
	th := NewThrottle(&NextLine{Degree: 1})
	issued := 0
	for i := uint64(0); i < 4000; i++ {
		issued += len(th.Advise(acc(i+1, 1, 1000+i), 2)) // pure sequential: NL is right
	}
	level, _ := th.Level()
	if level != 0 {
		t.Errorf("level = %d, want 0 (full budget)", level)
	}
	if issued < 3500 {
		t.Errorf("issued only %d; accurate prefetcher was throttled", issued)
	}
}

func TestThrottleName(t *testing.T) {
	if got := NewThrottle(&NextLine{}).Name(); got != "NextLine+FDP" {
		t.Errorf("Name() = %q", got)
	}
}

func TestThrottlePendingBounded(t *testing.T) {
	th := NewThrottle(&NextLine{})
	for i := uint64(0); i < 20_000; i++ {
		th.Advise(acc(i+1, 1, (i*2654435761)%(1<<24)), 2)
	}
	if th.pending.Len() > 4096 {
		t.Errorf("pending table grew to %d", th.pending.Len())
	}
}
