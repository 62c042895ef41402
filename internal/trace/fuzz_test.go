package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// FuzzRead checks the trace decoder never panics or over-allocates on
// arbitrary input, and that valid traces round-trip through it.
func FuzzRead(f *testing.F) {
	seed := counted(f, []Access{{ID: 1, PC: 2, Addr: 192, Chain: 3}, {ID: 9, PC: 4, Addr: 4096}})
	f.Add(seed)
	f.Add([]byte("PFT2"))
	f.Add([]byte{})
	// Corrupt-record seeds steering the fuzzer at the decoder's validation
	// paths: out-of-range pc/addr, id-delta overflow, chain overflow, and a
	// record truncated mid-field.
	f.Add(corruptTrace(1, 0, MaxAddr+1, 0, 0))
	f.Add(corruptTrace(1, 0, 0, MaxAddr+1, 0))
	f.Add(corruptTrace(2, 5, 0, 0, 0, ^uint64(0), 0, 0, 0))
	f.Add(corruptTrace(1, 0, 0, 0, 1<<32))
	f.Add(seed[:len(seed)-2])
	f.Fuzz(func(t *testing.T, data []byte) {
		accs, err := readAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything that decodes must re-encode and decode to the same
		// records.
		var buf bytes.Buffer
		if err := Encode(&buf, NewSliceSource(accs)); err != nil {
			t.Fatalf("Encode of decoded trace failed: %v", err)
		}
		again, err := readAll(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(accs) {
			t.Fatalf("round trip changed length: %d vs %d", len(again), len(accs))
		}
	})
}

// FuzzStreamRead drives the streaming decoder over arbitrary input, fed
// through a reader that returns at most k bytes per Read (k = 0: the
// whole input at once), and checks it record-for-record and
// error-for-error against refDecode, the independent reference decoder;
// Collect over a Reader is checked against the same reference. Seeds
// include both container formats, the corrupt-record corpus and a long
// stream whose corrupt record the word-at-a-time fast path must refuse.
func FuzzStreamRead(f *testing.F) {
	accs := []Access{{ID: 1, PC: 2, Addr: 192, Chain: 3}, {ID: 9, PC: 4, Addr: 4096}}
	pft2, stream := counted(f, accs), encode(f, accs)
	f.Add(pft2, uint16(0))
	f.Add(stream, uint16(1))
	f.Add([]byte("PFT2"), uint16(0))
	f.Add([]byte("PFT3"), uint16(0))
	f.Add([]byte{}, uint16(0))
	f.Add(corruptTrace(1, 0, MaxAddr+1, 0, 0), uint16(0))
	f.Add(corruptTrace(1, 0, 0, MaxAddr+1, 0), uint16(2))
	f.Add(corruptTrace(2, 5, 0, 0, 0, ^uint64(0), 0, 0, 0), uint16(0))
	f.Add(corruptTrace(1, 0, 0, 0, 1<<32), uint16(3))
	f.Add(pft2[:len(pft2)-2], uint16(0))
	f.Add(stream[:len(stream)-2], uint16(5))
	long := pft3(recordBytes(genAccesses(1000, 23)), uvarints(0, 0, 0, 1<<32), recordBytes(genAccesses(20, 24)))
	f.Add(long, uint16(0))
	f.Add(long, uint16(4093))
	f.Fuzz(func(t *testing.T, data []byte, k uint16) {
		want, wantErr := refDecode(data, io.EOF)
		_, got, err := decodeAll(&stubReader{data: data, k: int(k), err: io.EOF})
		if d := diffDecode(got, err, want, wantErr); d != "" {
			t.Fatalf("Reader (k=%d) vs reference: %s", k, d)
		}
		sliceAccs, sliceErr := readAll(bytes.NewReader(data))
		if wantErr != nil {
			want = nil
		}
		if d := diffDecode(sliceAccs, sliceErr, want, wantErr); d != "" {
			t.Fatalf("Collect vs reference: %s", d)
		}
	})
}

// FuzzReadText checks the text decoder never panics on arbitrary input
// and that whatever it accepts round-trips through the text form.
func FuzzReadText(f *testing.F) {
	f.Add(textLines([]Access{{ID: 1, PC: 2, Addr: 192, Chain: 3}, {ID: 9, PC: 4, Addr: 4096}}))
	f.Add("1 0x400100 NaN")
	f.Add("1 Inf 4096")
	f.Add("1 0x400100 40.96")
	f.Add("1 0x400100 0x1000000000000")
	f.Add("5 1 4096\n3 1 8192")
	f.Add("# comment only\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		accs, err := readText(strings.NewReader(data))
		if err != nil {
			return
		}
		again, err := readText(strings.NewReader(textLines(accs)))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(accs) {
			t.Fatalf("round trip changed length: %d vs %d", len(again), len(accs))
		}
	})
}

// FuzzReadPrefetches mirrors FuzzRead for prefetch files.
func FuzzReadPrefetches(f *testing.F) {
	var seed bytes.Buffer
	if err := WritePrefetches(&seed, []Prefetch{{ID: 1, Addr: 64}}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("PFP1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		pfs, err := ReadPrefetches(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WritePrefetches(&buf, pfs); err != nil {
			t.Fatalf("Write of decoded prefetches failed: %v", err)
		}
	})
}
