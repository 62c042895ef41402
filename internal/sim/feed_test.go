package sim

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"pathfinder/internal/trace"
)

// cutFeed delivers file in the chunks that end at cuts, ascending indices
// into file; a repeated index gives an empty chunk. Each chunk claims the
// most a producer of the non-decreasing file can: complete through the id
// just below the next undelivered entry's, or math.MaxUint64 once the file
// is out.
type cutFeed struct {
	file []trace.Prefetch
	cuts []int
	pos  int
}

func (f *cutFeed) Next() ([]trace.Prefetch, uint64, error) {
	end := len(f.file)
	if len(f.cuts) > 0 {
		end, f.cuts = min(f.cuts[0], end), f.cuts[1:]
	}
	chunk := f.file[f.pos:end]
	f.pos = end
	if end == len(f.file) {
		return chunk, math.MaxUint64, nil
	}
	// Trace ids start at 1, so a claim of 0 never lets an access through.
	return chunk, max(f.file[end].ID, 1) - 1, nil
}

// runFeed replays accs with the file behind feed on a pooled engine.
func runFeed(cfg Config, accs []trace.Access, feed PrefetchFeed) (Result, error) {
	eng, release := AcquireEngine(cfg)
	defer release()
	return eng.RunFeedCtx(context.Background(), trace.NewSliceSource(accs), feed)
}

// feedTrace draws n accesses with instruction-id gaps of 1 to 20 over a few
// pages, some of them in dependence chains.
func feedTrace(r *rand.Rand, n int) []trace.Access {
	accs := make([]trace.Access, n)
	id := uint64(1 + r.Intn(10))
	pages := 1 + r.Intn(12)
	for k := range accs {
		accs[k] = trace.Access{
			ID:   id,
			PC:   0x400000 + uint64(r.Intn(16))*4,
			Addr: uint64(r.Intn(pages))*trace.PageBytes + uint64(r.Intn(trace.BlocksPerPage))*trace.BlockBytes,
		}
		if r.Intn(6) == 0 {
			accs[k].Chain = uint32(1 + r.Intn(3))
		}
		id += uint64(1 + r.Intn(20))
	}
	return accs
}

// feedFile draws k entries near the trace's pages with ids anywhere from 0
// to 40 past the last access, sorted: entries before the first access,
// between accesses and past the last one all occur.
func feedFile(r *rand.Rand, accs []trace.Access, k int) []trace.Prefetch {
	if len(accs) == 0 {
		return nil
	}
	last := accs[len(accs)-1].ID
	pfs := make([]trace.Prefetch, k)
	for i := range pfs {
		a := accs[r.Intn(len(accs))]
		pfs[i] = trace.Prefetch{
			ID:   uint64(r.Int63n(int64(last) + 41)),
			Addr: a.Addr + uint64(r.Intn(2*trace.BlocksPerPage))*trace.BlockBytes,
		}
	}
	sort.SliceStable(pfs, func(i, j int) bool { return pfs[i].ID < pfs[j].ID })
	return pfs
}

// TestRunFeedChunkingMatchesSlice replays one file whole and through
// chunkings with empty chunks, one-entry chunks, chunks ending between
// accesses and past the last one: every replay gives the whole file's
// Result.
func TestRunFeedChunkingMatchesSlice(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	accs := feedTrace(r, 3000)
	file := feedFile(r, accs, 5000)
	cfg := ScaledConfig()
	cfg.Warmup = 300
	want, err := Run(cfg, accs, file)
	if err != nil {
		t.Fatal(err)
	}
	if want.PrefIssued == 0 || want.PrefFetched == 0 {
		t.Fatalf("the file issues nothing: %+v", want)
	}
	every := make([]int, len(file))
	for i := range every {
		every[i] = i + 1
	}
	random := make([]int, 200)
	for i := range random {
		random[i] = r.Intn(len(file) + 1)
	}
	sort.Ints(random)
	past := sort.Search(len(file), func(i int) bool { return file[i].ID > accs[len(accs)-1].ID })
	chunkings := []struct {
		name string
		cuts []int
	}{
		{"whole", nil},
		{"empty chunks first", []int{0, 0, 0}},
		{"one entry each", every},
		{"empty chunks inside", []int{10, 10, 10, 2000, 2000, 4000}},
		{"ends past the last access", []int{past, past + 1}},
		{"empty chunk at the end", []int{len(file), len(file)}},
		{"random", random},
	}
	for _, ch := range chunkings {
		got, err := runFeed(cfg, accs, &cutFeed{file: file, cuts: ch.cuts})
		if err != nil {
			t.Fatalf("%s: %v", ch.name, err)
		}
		if got != want {
			t.Errorf("%s: chunked %+v\n  whole file %+v", ch.name, got, want)
		}
	}

	// No feed replays no file, as a nil slice does.
	none, err := Run(cfg, accs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := runFeed(cfg, accs, nil); err != nil || got != none {
		t.Errorf("nil feed: %+v, %v; nil file %+v", got, err, none)
	}
}

// failingFeed delivers one chunk complete through id, then fails.
type failingFeed struct {
	chunk []trace.Prefetch
	id    uint64
	err   error
	sent  bool
}

func (f *failingFeed) Next() ([]trace.Prefetch, uint64, error) {
	if f.sent {
		return nil, 0, f.err
	}
	f.sent = true
	return f.chunk, f.id, nil
}

// TestRunFeedErrorEndsReplay checks a feed's error ends the replay with it,
// at the first access the delivered chunks do not cover.
func TestRunFeedErrorEndsReplay(t *testing.T) {
	accs := seqTrace(1000, 4)
	broken := errors.New("generation broke")
	_, err := runFeed(DefaultConfig(), accs, &failingFeed{id: accs[499].ID, err: broken})
	if !errors.Is(err, broken) {
		t.Fatalf("err = %v, want the feed's error", err)
	}
	if want := "sim: core 0: prefetch file at access 500: generation broke"; err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
}

// FuzzPrefetchFeed draws a trace and a non-decreasing prefetch file from
// seed and n, cuts the file where cuts says (each byte advances the cut by
// its value mod 16; 0 gives an empty chunk), and requires the chunked
// replay to equal the one-slice replay, error for error.
func FuzzPrefetchFeed(f *testing.F) {
	f.Add(int64(1), uint16(400), []byte{3, 0, 0, 7, 15, 1})
	f.Add(int64(2), uint16(0), []byte{})
	f.Add(int64(3), uint16(1), []byte{0})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, cuts []byte) {
		r := rand.New(rand.NewSource(seed))
		accs := feedTrace(r, int(n)%1500)
		file := feedFile(r, accs, r.Intn(3*len(accs)+1))
		cfg := ScaledConfig()
		if len(accs) > 10 && r.Intn(2) == 0 {
			cfg.Warmup = 1 + r.Intn(len(accs)/2)
		}
		var ends []int
		pos := 0
		for _, b := range cuts {
			pos = min(pos+int(b%16), len(file))
			ends = append(ends, pos)
		}
		want, wantErr := Run(cfg, accs, file)
		got, err := runFeed(cfg, accs, &cutFeed{file: file, cuts: ends})
		if (err == nil) != (wantErr == nil) || got != want {
			t.Fatalf("%d accesses, %d entries, cuts %v:\n  chunked    %+v, %v\n  whole file %+v, %v",
				len(accs), len(file), ends, got, err, want, wantErr)
		}
	})
}
