package workload

import (
	"testing"

	"pathfinder/internal/trace"
)

func TestSuiteHasElevenBenchmarks(t *testing.T) {
	if got := len(Suite()); got != 11 {
		t.Fatalf("Suite() has %d benchmarks, want 11 (Table 5)", got)
	}
}

func TestSuiteNamesUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, s := range Suite() {
		if seen[s.Name] {
			t.Errorf("duplicate benchmark name %q", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestSuiteComponentsWellFormed(t *testing.T) {
	for _, s := range Suite() {
		if s.IDGap <= 0 {
			t.Errorf("%s: IDGap = %d, want > 0", s.Name, s.IDGap)
		}
		total := 0
		for i, c := range s.Components {
			if c.Weight <= 0 {
				t.Errorf("%s component %d: weight %d", s.Name, i, c.Weight)
			}
			total += c.Weight
			if c.Kind == KindDeltaPattern && len(c.Pattern) == 0 {
				t.Errorf("%s component %d: delta pattern empty", s.Name, i)
			}
		}
		if total != 100 {
			t.Errorf("%s: component weights sum to %d, want 100", s.Name, total)
		}
	}
}

func TestLookup(t *testing.T) {
	s, err := Lookup("605-mcf-s1")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if s.Suite != "SPEC17" {
		t.Errorf("mcf suite = %q, want SPEC17", s.Suite)
	}
	if _, err := Lookup("no-such-trace"); err == nil {
		t.Error("Lookup accepted unknown name")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate("cc-5", 5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("cc-5", 5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("access %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := Generate("cc-5", 1000, 1)
	b, _ := Generate("cc-5", 1000, 2)
	same := 0
	for i := range a {
		if a[i].Addr == b[i].Addr {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateIDsMonotonic(t *testing.T) {
	for _, name := range Names() {
		accs, err := Generate(name, 2000, 7)
		if err != nil {
			t.Fatal(err)
		}
		prev := uint64(0)
		for i, a := range accs {
			if a.ID <= prev {
				t.Fatalf("%s access %d: ID %d <= previous %d", name, i, a.ID, prev)
			}
			prev = a.ID
		}
	}
}

func TestGenerateIDGapMatchesSpec(t *testing.T) {
	for _, s := range Suite() {
		n := 20000
		accs := s.Generate(n, 3)
		gap := float64(accs[n-1].ID-accs[0].ID) / float64(n-1)
		want := float64(s.IDGap)
		if gap < 0.8*want || gap > 1.2*want {
			t.Errorf("%s: mean ID gap %.1f, want ~%.0f", s.Name, gap, want)
		}
	}
}

func TestComponentRegionsDisjoint(t *testing.T) {
	// Components must not alias pages; each gets a 16 GB region.
	for _, s := range Suite() {
		accs := s.Generate(10000, 5)
		for i, a := range accs {
			region := a.Addr >> 34
			if region == 0 || int(region) > len(s.Components) {
				t.Fatalf("%s access %d: addr %#x outside any component region", s.Name, i, a.Addr)
			}
		}
	}
}

// pageDelta returns the block delta from a to b when both lie in one page.
func pageDelta(a, b uint64) (int, bool) {
	if trace.PageOf(a) != trace.PageOf(b) {
		return 0, false
	}
	return trace.OffsetOf(b) - trace.OffsetOf(a), true
}

func TestDeltaPatternStreamFollowsPattern(t *testing.T) {
	spec := Spec{
		Name: "pure-pattern", IDGap: 10,
		Components: []Component{{Weight: 100, Kind: KindDeltaPattern, Pattern: []int{1, 2, 3}}},
	}
	accs := spec.Generate(200, 9)
	// Deltas within a page must come from the pattern.
	validDelta := map[int]bool{1: true, 2: true, 3: true}
	for i := 1; i < len(accs); i++ {
		if d, ok := pageDelta(accs[i-1].Block(), accs[i].Block()); ok && d != 0 {
			if !validDelta[d] {
				t.Fatalf("access %d: delta %d not in pattern {1,2,3}", i, d)
			}
		}
	}
}

func TestStrideStream(t *testing.T) {
	spec := Spec{
		Name: "pure-stride", IDGap: 10,
		Components: []Component{{Weight: 100, Kind: KindStride, Stride: 4}},
	}
	accs := spec.Generate(100, 1)
	for i := 1; i < len(accs); i++ {
		got := int64(accs[i].Block()) - int64(accs[i-1].Block())
		if got != 4 {
			t.Fatalf("access %d: block stride %d, want 4", i, got)
		}
	}
}

func TestTemporalLoopRepeats(t *testing.T) {
	spec := Spec{
		Name: "pure-loop", IDGap: 10,
		Components: []Component{{Weight: 100, Kind: KindTemporalLoop, Nodes: 50}},
	}
	accs := spec.Generate(150, 1)
	for i := 0; i < 50; i++ {
		if accs[i].Addr != accs[i+50].Addr || accs[i].Addr != accs[i+100].Addr {
			t.Fatalf("loop position %d does not repeat", i)
		}
	}
}

func TestPointerChaseDeterministicSuccessors(t *testing.T) {
	spec := Spec{
		Name: "pure-chase", IDGap: 10,
		Components: []Component{{Weight: 100, Kind: KindPointerChase, Nodes: 64}},
	}
	accs := spec.Generate(256, 1)
	// Without branchiness, every address has exactly one successor.
	succ := make(map[uint64]uint64)
	for i := 1; i < len(accs); i++ {
		prev, cur := accs[i-1].Addr, accs[i].Addr
		if want, ok := succ[prev]; ok && want != cur {
			t.Fatalf("address %#x has two successors %#x and %#x", prev, want, cur)
		}
		succ[prev] = cur
	}
}

func TestHotStreamSmallFootprint(t *testing.T) {
	spec := Spec{
		Name: "pure-hot", IDGap: 10,
		Components: []Component{{Weight: 100, Kind: KindHot, Set: 64}},
	}
	accs := spec.Generate(5000, 1)
	distinct := make(map[uint64]bool)
	for _, a := range accs {
		distinct[a.Addr] = true
	}
	if len(distinct) > 64 {
		t.Fatalf("hot stream touched %d distinct addresses, want <= 64", len(distinct))
	}
}

func TestComputeDeltaStats(t *testing.T) {
	// Three accesses on one page: offsets 0, 2, 5 -> deltas {2, 3}.
	base := uint64(1) << 34
	accs := []trace.Access{
		{Addr: base},
		{Addr: base + 2*trace.BlockBytes},
		{Addr: base + 5*trace.BlockBytes},
		{Addr: base + trace.PageBytes}, // new page, no delta
	}
	st := ComputeDeltaStats(accs, 31, 15)
	if st.Deltas != 2 {
		t.Fatalf("Deltas = %d, want 2", st.Deltas)
	}
	if st.InRange[31] != 2 || st.InRange[15] != 2 {
		t.Fatalf("InRange = %v, want both 2", st.InRange)
	}
}

func TestDeltaStatsRangesNested(t *testing.T) {
	// |d| < 15 implies |d| < 31, so the counts must be ordered.
	for _, name := range []string{"cc-5", "605-mcf-s1", "623-xalan-s1"} {
		accs, _ := Generate(name, 20000, 11)
		st := ComputeDeltaStats(accs, 31, 15)
		if st.InRange[15] > st.InRange[31] {
			t.Errorf("%s: InRange[15]=%d > InRange[31]=%d", name, st.InRange[15], st.InRange[31])
		}
		if st.InRange[31] > st.Deltas {
			t.Errorf("%s: InRange[31]=%d > Deltas=%d", name, st.InRange[31], st.Deltas)
		}
	}
}

func TestDeltaDensityOrdering(t *testing.T) {
	// The paper's Table 8: bfs is delta-dense, mcf and astar are sparse.
	// Our synthetic stand-ins must preserve that ordering.
	density := func(name string) float64 {
		accs, err := Generate(name, 30000, 13)
		if err != nil {
			t.Fatal(err)
		}
		st := ComputeDeltaStats(accs)
		return st.PerWindow.AvgDeltas
	}
	bfs := density("bfs-10")
	mcf := density("605-mcf-s1")
	astar := density("473-astar-s1")
	if bfs <= mcf || bfs <= astar {
		t.Errorf("delta density: bfs=%.0f should exceed mcf=%.0f and astar=%.0f", bfs, mcf, astar)
	}
}

func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate("cc-5", 100_000, 42); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPointerChaseFields(t *testing.T) {
	spec := Spec{
		Name: "fields", IDGap: 10,
		Components: []Component{{Weight: 100, Kind: KindPointerChase, Nodes: 64, Fields: 3}},
	}
	accs := spec.Generate(300, 1)
	// One hop (chained) followed by two independent field reads.
	chained, free := 0, 0
	for _, a := range accs {
		if a.Chain != 0 {
			chained++
		} else {
			free++
		}
	}
	if chained == 0 || free == 0 {
		t.Fatalf("chained=%d free=%d; want both", chained, free)
	}
	ratio := float64(free) / float64(chained)
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("fields ratio %.2f, want ~2 (Fields=3)", ratio)
	}
}

func TestPointerChaseMultipleChains(t *testing.T) {
	spec := Spec{
		Name: "chains", IDGap: 10,
		Components: []Component{{Weight: 100, Kind: KindPointerChase, Nodes: 64, Chains: 3}},
	}
	accs := spec.Generate(300, 1)
	ids := map[uint32]bool{}
	for _, a := range accs {
		if a.Chain != 0 {
			ids[a.Chain] = true
		}
	}
	if len(ids) != 3 {
		t.Errorf("distinct chain ids = %d, want 3", len(ids))
	}
}

func TestTemporalLoopChainsDistinct(t *testing.T) {
	spec := Spec{
		Name: "loopchains", IDGap: 10,
		Components: []Component{{Weight: 100, Kind: KindTemporalLoop, Nodes: 60, Chains: 2}},
	}
	accs := spec.Generate(200, 1)
	ids := map[uint32]bool{}
	for _, a := range accs {
		ids[a.Chain] = true
	}
	if len(ids) != 2 {
		t.Errorf("distinct loop chain ids = %d, want 2", len(ids))
	}
}

func TestDeltaPatternMorphChangesPattern(t *testing.T) {
	spec := Spec{
		Name: "morph", IDGap: 10,
		Components: []Component{{Weight: 100, Kind: KindDeltaPattern, Pattern: []int{1, 2, 3}, MorphEvery: 500}},
	}
	accs := spec.Generate(2000, 1)
	// Collect positive same-page deltas before and after the morph point.
	deltasIn := func(lo, hi int) map[int]bool {
		out := map[int]bool{}
		for i := lo + 1; i < hi; i++ {
			if d, ok := pageDelta(accs[i-1].Block(), accs[i].Block()); ok && d > 0 {
				out[d] = true
			}
		}
		return out
	}
	before := deltasIn(0, 450)
	after := deltasIn(1500, 2000)
	same := true
	for d := range after {
		if !before[d] {
			same = false
		}
	}
	for d := range before {
		if !after[d] {
			same = false
		}
	}
	if same {
		t.Error("pattern did not change after morph point")
	}
}

func TestChainsAreSerialInSim(t *testing.T) {
	// Sanity: chain ids survive into the trace and are non-zero only for
	// chase/loop components across the whole suite.
	for _, s := range Suite() {
		accs := s.Generate(3000, 5)
		sawChain := false
		for _, a := range accs {
			if a.Chain != 0 {
				sawChain = true
				break
			}
		}
		hasChainComponent := false
		for _, c := range s.Components {
			if c.Kind == KindPointerChase || c.Kind == KindTemporalLoop {
				hasChainComponent = true
			}
		}
		if hasChainComponent && !sawChain {
			t.Errorf("%s: no chained accesses despite chase/loop components", s.Name)
		}
	}
}

func TestGenerateBFSShape(t *testing.T) {
	accs := GenerateBFS(20_000, 1)
	if len(accs) != 20_000 {
		t.Fatalf("got %d accesses", len(accs))
	}
	// IDs strictly increase; the four CSR structures all appear; the
	// state lookups are chained.
	var pcs = map[uint64]int{}
	chained := 0
	prev := uint64(0)
	for _, a := range accs {
		if a.ID <= prev {
			t.Fatal("IDs not increasing")
		}
		prev = a.ID
		pcs[a.PC]++
		if a.Chain != 0 {
			chained++
		}
	}
	if len(pcs) != 4 {
		t.Fatalf("distinct PCs = %d, want 4 (offsets/edges/state/queue)", len(pcs))
	}
	if chained == 0 {
		t.Fatal("no chained (data-dependent) loads")
	}
	// Edge scans dominate and are delta-regular: the edges PC should be
	// the most frequent.
	if pcs[0x500008] < pcs[0x500000] {
		t.Errorf("edge loads (%d) fewer than offsets loads (%d)", pcs[0x500008], pcs[0x500000])
	}
}

func TestGenerateCCDeterministic(t *testing.T) {
	a := GenerateCC(5_000, 3)
	b := GenerateCC(5_000, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("access %d differs", i)
		}
	}
}

func TestGenerateExecutedDispatch(t *testing.T) {
	if _, err := GenerateExecuted("bfs-csr", 100, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateExecuted("nope", 100, 1); err == nil {
		t.Error("accepted unknown kernel")
	}
	// Generate() falls through to executed kernels.
	accs, err := Generate("cc-csr", 100, 1)
	if err != nil || len(accs) != 100 {
		t.Fatalf("Generate(cc-csr) = %d accs, err %v", len(accs), err)
	}
}

func TestExecutedKernelsHaveSequentialEdgeScans(t *testing.T) {
	// The edge-array scans must produce small positive deltas (4-byte
	// edges, so consecutive edges usually share a block: delta 0 or 1).
	accs := GenerateCC(20_000, 1)
	small, total := 0, 0
	var lastEdgeBlock uint64
	seen := false
	for _, a := range accs {
		if a.PC != 0x500008 {
			continue
		}
		b := a.Block()
		if seen {
			d := int64(b) - int64(lastEdgeBlock)
			total++
			if d >= 0 && d <= 1 {
				small++
			}
		}
		lastEdgeBlock = b
		seen = true
	}
	if total == 0 || float64(small)/float64(total) < 0.8 {
		t.Errorf("edge scan not sequential: %d/%d small deltas", small, total)
	}
}
