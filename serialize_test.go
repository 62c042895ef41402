package pathfinder

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden regenerates testdata/prefetcher_golden.pfs:
//
//	go test -run TestGoldenPrefetcherBlob -update .
var updateGolden = flag.Bool("update", false, "rewrite the golden prefetcher blob")

const goldenBlobPath = "testdata/prefetcher_golden.pfs"

// goldenPrefetcher trains a small deterministic PATHFINDER — the fixed
// generator behind the committed golden blob. Everything is seeded, so
// any change to this function, the encoder, the SNN update rule, or the
// serialization format shows up as a byte diff against the blob.
func goldenPrefetcher(t testing.TB) *Prefetcher {
	t.Helper()
	cfg := DefaultConfig()
	cfg.DeltaRange = 15
	cfg.History = 3
	cfg.Neurons = 10
	cfg.LabelsPerNeuron = 2
	cfg.Ticks = 8
	cfg.Seed = 7
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, a := range collectTrace(t, "cc-5", 3000, 7) {
		p.Advise(a, Budget)
	}
	return p
}

// TestGoldenPrefetcherBlob pins the on-disk serialization format: the
// deterministic generator must reproduce the committed blob byte for
// byte, and the blob must survive a LoadPrefetcher → Save round trip
// unchanged. A deliberate format change regenerates the blob with
// -update; an accidental one fails here first.
func TestGoldenPrefetcherBlob(t *testing.T) {
	p := goldenPrefetcher(t)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenBlobPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenBlobPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenBlobPath, buf.Len())
		return
	}

	golden, err := os.ReadFile(goldenBlobPath)
	if err != nil {
		t.Fatalf("missing golden blob (regenerate with `go test -run TestGoldenPrefetcherBlob -update .`): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("serialization drifted from the committed golden blob (%d vs %d bytes); if the format change is deliberate, regenerate with -update", buf.Len(), len(golden))
	}

	// Round trip: the committed blob loads, and re-saving the loaded
	// prefetcher reproduces it exactly.
	q, err := LoadPrefetcher(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("LoadPrefetcher(golden): %v", err)
	}
	var buf2 bytes.Buffer
	if err := q.Save(&buf2); err != nil {
		t.Fatalf("re-Save: %v", err)
	}
	if !bytes.Equal(buf2.Bytes(), golden) {
		t.Fatal("golden blob did not survive a Load -> Save round trip")
	}
	if q.Config() != p.Config() {
		t.Errorf("restored config %+v != trained config %+v", q.Config(), p.Config())
	}
}

// FuzzLoadPrefetcher hammers the deserializer with arbitrary bytes: it
// must reject garbage with an error — never panic, never allocate
// unboundedly — and anything it does accept must survive a Save → Load
// round trip byte-identically.
func FuzzLoadPrefetcher(f *testing.F) {
	if golden, err := os.ReadFile(goldenBlobPath); err == nil {
		f.Add(golden)
		f.Add(golden[:len(golden)/2])
	}
	f.Add([]byte{})
	f.Add([]byte("PFS1"))
	f.Add([]byte("XXXXjunk"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadPrefetcher(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatalf("Save after accepted Load: %v", err)
		}
		q, err := LoadPrefetcher(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reload of saved state: %v", err)
		}
		var buf2 bytes.Buffer
		if err := q.Save(&buf2); err != nil {
			t.Fatalf("re-Save: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("Save -> Load -> Save is not a fixed point")
		}
	})
}
