package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pathfinder/internal/telemetry"
)

// genAccesses builds a deterministic pseudo-random valid trace.
func genAccesses(n int, seed int64) []Access {
	rng := rand.New(rand.NewSource(seed))
	accs := make([]Access, n)
	id := uint64(0)
	for i := range accs {
		id += uint64(rng.Intn(50))
		accs[i] = Access{
			ID:    id,
			PC:    rng.Uint64() & MaxAddr,
			Addr:  rng.Uint64() & MaxAddr,
			Chain: uint32(rng.Intn(4)),
		}
	}
	return accs
}

func TestSliceSource(t *testing.T) {
	accs := genAccesses(10, 1)
	src := NewSliceSource(accs)
	if n, ok := src.Remaining(); !ok || n != 10 {
		t.Fatalf("Remaining = %d,%v; want 10,true", n, ok)
	}
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, accs) {
		t.Fatal("Collect(SliceSource) mismatch")
	}
	var a Access
	if err := src.Next(&a); err != io.EOF {
		t.Fatalf("Next after drain = %v, want io.EOF", err)
	}
	src.Reset()
	if n, _ := src.Remaining(); n != 10 {
		t.Fatalf("Remaining after Reset = %d, want 10", n)
	}
}

func TestStreamWriterReaderRoundTrip(t *testing.T) {
	accs := genAccesses(1000, 2)
	var buf bytes.Buffer
	if err := Encode(&buf, NewSliceSource(accs)); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if got := buf.Bytes()[:4]; string(got) != "PFT3" {
		t.Fatalf("stream container magic = %q, want PFT3", got)
	}
	got, err := readAll(&buf)
	if err != nil {
		t.Fatalf("read of PFT3 stream: %v", err)
	}
	if !reflect.DeepEqual(got, accs) {
		t.Fatal("PFT3 round trip mismatch")
	}
}

// TestStreamWriterMatchesWrite pins that both containers carry the same
// record bytes: a counted PFT2 container holding Encode's records after
// its magic and count decodes to the records Encode was given, down to
// the widest fields the encoder accepts.
func TestStreamWriterMatchesWrite(t *testing.T) {
	accs := genAccesses(1000, 14)
	last := accs[len(accs)-1].ID
	accs = append(accs, Access{ID: last + 1<<60, PC: MaxAddr, Addr: MaxAddr, Chain: 1<<32 - 1})
	got, err := readAll(bytes.NewReader(counted(t, accs)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, accs) {
		t.Fatal("the PFT2 decoder reads Encode's record bytes differently")
	}
}

func TestStreamWriterEmpty(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(&buf)
	if err != nil {
		t.Fatalf("read of empty PFT3 stream: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d records, want 0", len(got))
	}
}

func TestStreamWriterValidation(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	if err := w.Write(Access{ID: 5}); err != nil {
		t.Fatal(err)
	}
	err := w.Write(Access{ID: 3})
	if err == nil || !strings.Contains(err.Error(), "ID 3 < previous ID 5") {
		t.Fatalf("decreasing ID err = %v", err)
	}
	// The error is sticky: valid records after it are refused too.
	if err2 := w.Write(Access{ID: 9}); err2 != err {
		t.Fatalf("post-error Write = %v, want the sticky %v", err2, err)
	}
	if err2 := w.Flush(); err2 != err {
		t.Fatalf("post-error Flush = %v, want the sticky %v", err2, err)
	}

	for _, a := range []Access{
		{ID: 1, PC: MaxAddr + 1},
		{ID: 1, Addr: MaxAddr + 1},
	} {
		w := NewWriter(&bytes.Buffer{})
		if err := w.Write(a); err == nil {
			t.Errorf("Writer accepted out-of-range record %+v", a)
		}
	}
}

func TestStreamWriterFailurePaths(t *testing.T) {
	accs := []Access{{ID: 1, PC: 2, Addr: 192}, {ID: 5, PC: 9, Addr: 4096}}
	var full bytes.Buffer
	if err := Encode(&full, NewSliceSource(accs)); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < full.Len(); n++ {
		if err := Encode(&failWriter{n: n}, NewSliceSource(accs)); err == nil {
			t.Fatalf("Encode succeeded with a writer that fails after %d bytes", n)
		}
	}
}

// TestStreamSliceDecodeParity is the differential decode test: over
// valid, corrupt, and truncated containers, the streaming Reader must
// yield the reference decoder's accesses or positioned error, and
// Collect over it the Reader's.
func TestStreamSliceDecodeParity(t *testing.T) {
	valid := counted(t, genAccesses(200, 3))
	stream := encode(t, genAccesses(200, 3))
	cases := map[string][]byte{
		"valid counted":             valid,
		"valid stream":              stream,
		"empty input":               {},
		"bad magic":                 []byte("XXXX\x00"),
		"magic only":                []byte("PFT2"),
		"stream magic only":         stream[:4],
		"truncated mid-record":      valid[:len(valid)-2],
		"stream truncated":          stream[:len(stream)-2],
		"pc beyond address space":   corruptTrace(1, 0, MaxAddr+1, 0, 0),
		"addr beyond address space": corruptTrace(1, 0, 0, MaxAddr+1, 0),
		"id delta overflow":         corruptTrace(2, 5, 0, 0, 0, ^uint64(0), 0, 0, 0),
		"chain overflow":            corruptTrace(1, 0, 0, 0, 1<<32),
		"implausible count":         corruptTrace(sanityMaxRecords + 1),
	}
	for name, data := range cases {
		want, wantErr := refDecode(data, io.EOF)
		_, streamAccs, streamErr := decodeAll(bytes.NewReader(data))
		if d := diffDecode(streamAccs, streamErr, want, wantErr); d != "" {
			t.Errorf("%s: stream vs reference: %s", name, d)
		}
		if streamErr != nil {
			streamAccs = nil
		}
		sliceAccs, sliceErr := readAll(bytes.NewReader(data))
		if d := diffDecode(sliceAccs, sliceErr, streamAccs, streamErr); d != "" {
			t.Errorf("%s: slice vs stream: %s", name, d)
		}
	}
}

func TestReaderStickyError(t *testing.T) {
	data := corruptTrace(1, 0, 0, 0, 1<<32)
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var a Access
	err1 := rd.Next(&a)
	if err1 == nil {
		t.Fatal("Next accepted corrupt record")
	}
	if err2 := rd.Next(&a); err2 != err1 {
		t.Fatalf("second Next = %v, want the sticky %v", err2, err1)
	}
}

func TestReaderRemaining(t *testing.T) {
	accs := genAccesses(5, 4)
	rd, err := NewReader(bytes.NewReader(counted(t, accs)))
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := rd.Remaining(); !ok || n != 5 {
		t.Fatalf("counted Remaining = %d,%v; want 5,true", n, ok)
	}
	var a Access
	if err := rd.Next(&a); err != nil {
		t.Fatal(err)
	}
	if n, _ := rd.Remaining(); n != 4 {
		t.Fatalf("Remaining after one Next = %d, want 4", n)
	}

	var stream bytes.Buffer
	if err := Encode(&stream, NewSliceSource(accs)); err != nil {
		t.Fatal(err)
	}
	rd, err = NewReader(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rd.Remaining(); ok {
		t.Fatal("unbounded stream claimed a known Remaining")
	}
}

// TestTextStreamParity mirrors the binary parity test for the text form:
// Collect over a TextReader yields what Next does, record for record and
// error for error.
func TestTextStreamParity(t *testing.T) {
	cases := map[string]string{
		"valid":          textLines(genAccesses(50, 5)),
		"empty":          "",
		"comments only":  "# hi\n\n# there\n",
		"nan field":      "1 0x400100 NaN",
		"inf field":      "1 Inf 4096",
		"float field":    "1 0x400100 40.96",
		"out of range":   "1 0x400100 0x1000000000000",
		"decreasing ids": "5 1 4096\n3 1 8192",
		"bad arity":      "1 2\n",
		"chain overflow": "1 2 64 4294967296",
	}
	for name, data := range cases {
		sliceAccs, sliceErr := readText(strings.NewReader(data))

		var streamAccs []Access
		var streamErr error
		tr := NewTextReader(strings.NewReader(data))
		for {
			var a Access
			if err := tr.Next(&a); err != nil {
				if err != io.EOF {
					streamErr = err
				}
				break
			}
			streamAccs = append(streamAccs, a)
		}

		if (sliceErr == nil) != (streamErr == nil) {
			t.Errorf("%s: slice err %v vs stream err %v", name, sliceErr, streamErr)
			continue
		}
		if sliceErr != nil {
			if sliceErr.Error() != streamErr.Error() {
				t.Errorf("%s: positioned errors differ:\n  slice:  %v\n  stream: %v", name, sliceErr, streamErr)
			}
			continue
		}
		if !reflect.DeepEqual(sliceAccs, streamAccs) {
			t.Errorf("%s: records differ", name)
		}
	}
}

func TestNewAutoReader(t *testing.T) {
	accs := genAccesses(30, 7)
	for name, data := range map[string][]byte{
		"counted": counted(t, accs),
		"stream":  encode(t, accs),
		"text":    []byte(textLines(accs)),
	} {
		src, err := NewAutoReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: NewAutoReader: %v", name, err)
		}
		got, err := Collect(src)
		if err != nil {
			t.Fatalf("%s: Collect: %v", name, err)
		}
		if !reflect.DeepEqual(got, accs) {
			t.Fatalf("%s: auto-sniffed decode mismatch", name)
		}
	}
}

func TestHashSource(t *testing.T) {
	accs := genAccesses(100, 8)
	h1, n1, err := HashSource(NewSliceSource(accs))
	if err != nil {
		t.Fatal(err)
	}
	if n1 != 100 {
		t.Fatalf("n = %d, want 100", n1)
	}
	// The hash must be identical when the same records arrive via the
	// streaming decoder — this is the golden-hash parity primitive.
	var buf bytes.Buffer
	if err := Encode(&buf, NewSliceSource(accs)); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h2, n2, err := HashSource(rd)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 || n1 != n2 {
		t.Fatalf("hash/count mismatch: slice %#x/%d vs stream %#x/%d", h1, n1, h2, n2)
	}
	// And it must actually discriminate.
	accs[50].Addr ^= 64
	h3, _, err := HashSource(NewSliceSource(accs))
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("hash did not change when a record changed")
	}
}

func TestHashSourcePropagatesError(t *testing.T) {
	data := corruptTrace(1, 0, MaxAddr+1, 0, 0)
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := HashSource(rd); err == nil {
		t.Fatal("HashSource swallowed a decode error")
	}
}

// TestReaderZeroAllocSteadyState pins the decoder's 0 allocs/op contract:
// once constructed, Next must not allocate, with telemetry enabled.
func TestReaderZeroAllocSteadyState(t *testing.T) {
	reg := telemetry.NewRegistry()
	EnableTelemetry(reg)
	defer EnableTelemetry(nil)

	rd, err := NewReader(bytes.NewReader(counted(t, genAccesses(4096, 9))))
	if err != nil {
		t.Fatal(err)
	}
	var a Access
	// Warm up past any lazily initialized state.
	for i := 0; i < 16; i++ {
		if err := rd.Next(&a); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := rd.Next(&a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Reader.Next allocates %v allocs/op in steady state, want 0", allocs)
	}
}

// TestCollectAllocations pins Collect's allocation count independent of
// the record count: the pre-sized destination plus one record variable,
// never a heap object per record.
func TestCollectAllocations(t *testing.T) {
	accs := genAccesses(4096, 9)
	src := NewSliceSource(accs)
	allocs := testing.AllocsPerRun(20, func() {
		src.Reset()
		got, err := Collect(src)
		if err != nil || len(got) != len(accs) {
			t.Fatalf("Collect = %d records, %v; want %d", len(got), err, len(accs))
		}
	})
	if allocs > 2 {
		t.Fatalf("Collect of %d records allocates %v objects, want at most 2", len(accs), allocs)
	}
}

func TestDecodeTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	EnableTelemetry(reg)
	defer EnableTelemetry(nil)

	if _, err := readAll(bytes.NewReader(counted(t, genAccesses(25, 10)))); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["trace.records_decoded"]; got != 25 {
		t.Errorf("trace.records_decoded = %d, want 25", got)
	}
	if got := snap.Counters["trace.decode_errors"]; got != 0 {
		t.Errorf("trace.decode_errors = %d, want 0", got)
	}

	if _, err := readAll(bytes.NewReader(corruptTrace(1, 0, MaxAddr+1, 0, 0))); err == nil {
		t.Fatal("read accepted corrupt record")
	}
	if _, err := readText(strings.NewReader("1 2 NaN")); err == nil {
		t.Fatal("readText accepted NaN")
	}
	snap = reg.Snapshot()
	if got := snap.Counters["trace.decode_errors"]; got != 2 {
		t.Errorf("trace.decode_errors = %d, want 2", got)
	}
}

func TestCollectPropagatesError(t *testing.T) {
	rd, err := NewReader(bytes.NewReader(corruptTrace(1, 0, 0, MaxAddr+1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(rd); err == nil {
		t.Fatal("Collect swallowed a decode error")
	}
	var bad error = errors.New("boom")
	if _, err := Collect(errSource{bad}); err != bad {
		t.Fatalf("Collect err = %v, want %v", err, bad)
	}
}

type errSource struct{ err error }

func (e errSource) Next(*Access) error { return e.err }

func BenchmarkReaderNext(b *testing.B) {
	data := counted(b, genAccesses(1<<16, 11))
	b.ReportAllocs()
	var a Access
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rd.Next(&a); err != nil {
			if err != io.EOF {
				b.Fatal(err)
			}
			b.StopTimer()
			rd, err = NewReader(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkRead decodes a counted container into a slice.
func BenchmarkRead(b *testing.B) {
	data := counted(b, genAccesses(1<<16, 12))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := readAll(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamEncode(b *testing.B) {
	accs := genAccesses(1<<16, 13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Encode(io.Discard, NewSliceSource(accs)); err != nil {
			b.Fatal(err)
		}
	}
}
