package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddressHelpers(t *testing.T) {
	a := Access{Addr: 2*PageBytes + 5*BlockBytes + 7}
	if got, want := a.Page(), uint64(2); got != want {
		t.Errorf("Page() = %d, want %d", got, want)
	}
	if got, want := a.Offset(), 5; got != want {
		t.Errorf("Offset() = %d, want %d", got, want)
	}
	if got, want := a.Block(), uint64(2*BlocksPerPage+5); got != want {
		t.Errorf("Block() = %d, want %d", got, want)
	}
}

func TestBlockAddrRoundTrip(t *testing.T) {
	for _, block := range []uint64{0, 1, 63, 64, 12345, 1 << 40} {
		addr := BlockAddr(block)
		if got := (Access{Addr: addr}).Block(); got != block {
			t.Errorf("Block(BlockAddr(%d)) = %d", block, got)
		}
	}
}

func TestPageOfOffsetOf(t *testing.T) {
	block := uint64(3*BlocksPerPage + 17)
	if got := PageOf(block); got != 3 {
		t.Errorf("PageOf = %d, want 3", got)
	}
	if got := OffsetOf(block); got != 17 {
		t.Errorf("OffsetOf = %d, want 17", got)
	}
}

// readAll decodes a binary trace container, PFT2 or PFT3, into a slice.
func readAll(r io.Reader) ([]Access, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	return Collect(rd)
}

// encode returns accs as a PFT3 stream.
func encode(t testing.TB, accs []Access) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, NewSliceSource(accs)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// counted returns accs as a counted PFT2 container: its magic, a uvarint
// count, then the record bytes Encode writes after the PFT3 magic.
func counted(t testing.TB, accs []Access) []byte {
	t.Helper()
	b := binary.AppendUvarint(append([]byte(nil), magic[:]...), uint64(len(accs)))
	return append(b, encode(t, accs)[len(magic3):]...)
}

// The three delta tests pin the same-page block delta every delta
// learner computes from PageOf and OffsetOf.
func TestDeltaSamePage(t *testing.T) {
	a := uint64(5*BlocksPerPage + 10)
	b := uint64(5*BlocksPerPage + 13)
	if PageOf(a) != PageOf(b) {
		t.Fatalf("blocks %d and %d in pages %d and %d; want one page", a, b, PageOf(a), PageOf(b))
	}
	if d := OffsetOf(b) - OffsetOf(a); d != 3 {
		t.Errorf("delta = %d, want 3", d)
	}
	if d := OffsetOf(a) - OffsetOf(b); d != -3 {
		t.Errorf("reverse delta = %d, want -3", d)
	}
}

func TestDeltaCrossPage(t *testing.T) {
	a := uint64(5*BlocksPerPage + 63)
	b := uint64(6 * BlocksPerPage)
	if PageOf(a) == PageOf(b) {
		t.Error("adjacent blocks across a page boundary share a page")
	}
}

func TestDeltaBounds(t *testing.T) {
	// Property: any same-page delta is within [MinDelta, MaxDelta].
	f := func(page uint64, o1, o2 uint8) bool {
		a := page*BlocksPerPage + uint64(o1%BlocksPerPage)
		b := page*BlocksPerPage + uint64(o2%BlocksPerPage)
		d := OffsetOf(b) - OffsetOf(a)
		return PageOf(a) == PageOf(b) && d >= MinDelta && d <= MaxDelta
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWriteReadRoundTrip round-trips records through the counted
// container.
func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	accs := make([]Access, 1000)
	id := uint64(0)
	for i := range accs {
		id += uint64(rng.Intn(50))
		accs[i] = Access{ID: id, PC: rng.Uint64() & MaxAddr, Addr: rng.Uint64() & MaxAddr}
	}
	got, err := readAll(bytes.NewReader(counted(t, accs)))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(got, accs) {
		t.Fatal("round trip mismatch")
	}
}

func TestWriteRejectsDecreasingIDs(t *testing.T) {
	accs := []Access{{ID: 5}, {ID: 3}}
	if err := Encode(&bytes.Buffer{}, NewSliceSource(accs)); err == nil {
		t.Error("Encode accepted decreasing IDs")
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := readAll(strings.NewReader("XXXX\x00")); err == nil {
		t.Error("read accepted bad magic")
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	b := counted(t, []Access{{ID: 1, PC: 2, Addr: 3}})
	if _, err := readAll(bytes.NewReader(b[:len(b)-1])); err == nil {
		t.Error("read accepted truncated input")
	}
}

func TestReadEmptyTrace(t *testing.T) {
	got, err := readAll(bytes.NewReader(counted(t, nil)))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got) != 0 {
		t.Errorf("got %d records, want 0", len(got))
	}
}

func TestPrefetchRoundTrip(t *testing.T) {
	pfs := []Prefetch{{ID: 1, Addr: 64}, {ID: 1, Addr: 128}, {ID: 9, Addr: 4096}}
	var buf bytes.Buffer
	if err := WritePrefetches(&buf, pfs); err != nil {
		t.Fatalf("WritePrefetches: %v", err)
	}
	got, err := ReadPrefetches(&buf)
	if err != nil {
		t.Fatalf("ReadPrefetches: %v", err)
	}
	if !reflect.DeepEqual(got, pfs) {
		t.Fatal("round trip mismatch")
	}
}

func TestWritePrefetchesRejectsDecreasingIDs(t *testing.T) {
	pfs := []Prefetch{{ID: 5}, {ID: 4}}
	if err := WritePrefetches(&bytes.Buffer{}, pfs); err == nil {
		t.Error("WritePrefetches accepted decreasing IDs")
	}
}

func TestReadPrefetchesRejectsBadMagic(t *testing.T) {
	if _, err := ReadPrefetches(strings.NewReader("NOPE\x00")); err == nil {
		t.Error("ReadPrefetches accepted bad magic")
	}
}

func TestTraceRoundTripProperty(t *testing.T) {
	// Property: sorting arbitrary uvarint-sized records by ID and round
	// tripping them is the identity.
	f := func(ids []uint16, pcs []uint32, addrs []uint64) bool {
		n := len(ids)
		if len(pcs) < n {
			n = len(pcs)
		}
		if len(addrs) < n {
			n = len(addrs)
		}
		accs := make([]Access, n)
		id := uint64(0)
		for i := 0; i < n; i++ {
			id += uint64(ids[i])
			accs[i] = Access{ID: id, PC: uint64(pcs[i]), Addr: addrs[i] & MaxAddr}
		}
		var buf bytes.Buffer
		if err := Encode(&buf, NewSliceSource(accs)); err != nil {
			return false
		}
		got, err := readAll(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(accs) {
			return false
		}
		for i := range got {
			if got[i] != accs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWriteRejectsOutOfRangeFields(t *testing.T) {
	for _, accs := range [][]Access{
		{{ID: 1, PC: MaxAddr + 1, Addr: 0}},
		{{ID: 1, PC: 0, Addr: MaxAddr + 1}},
	} {
		if err := Encode(&bytes.Buffer{}, NewSliceSource(accs)); err == nil {
			t.Errorf("Encode accepted out-of-range record %+v", accs[0])
		}
	}
	if err := WritePrefetches(&bytes.Buffer{}, []Prefetch{{ID: 1, Addr: MaxAddr + 1}}); err == nil {
		t.Error("WritePrefetches accepted out-of-range addr")
	}
}

// corruptTrace hand-encodes a PFT2 body (count then raw uvarint fields),
// bypassing the encoder's validation to reach the decoder's reject paths.
func corruptTrace(fields ...uint64) []byte {
	var buf bytes.Buffer
	buf.Write(magic[:])
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range fields {
		buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
	}
	return buf.Bytes()
}

func TestReadRejectsCorruptRecords(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"pc beyond address space", corruptTrace(1, 0, MaxAddr+1, 0, 0), "beyond the canonical address space"},
		{"addr beyond address space", corruptTrace(1, 0, 0, MaxAddr+1, 0), "beyond the canonical address space"},
		{"id delta overflow", corruptTrace(2, 5, 0, 0, 0, ^uint64(0), 0, 0, 0), "overflows the id sequence"},
		{"chain overflow", corruptTrace(1, 0, 0, 0, 1<<32), "overflows uint32"},
	}
	for _, tc := range cases {
		_, err := readAll(bytes.NewReader(tc.data))
		if err == nil {
			t.Errorf("%s: read accepted corrupt record", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
		if !strings.Contains(err.Error(), "record ") {
			t.Errorf("%s: err %q lacks the record position", tc.name, err)
		}
	}
}

func TestReadPrefetchesRejectsCorruptRecords(t *testing.T) {
	enc := func(fields ...uint64) []byte {
		var buf bytes.Buffer
		buf.WriteString("PFP1")
		var tmp [binary.MaxVarintLen64]byte
		for _, v := range fields {
			buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
		}
		return buf.Bytes()
	}
	for name, data := range map[string][]byte{
		"addr beyond address space": enc(1, 0, MaxAddr+1),
		"id delta overflow":         enc(2, 5, 0, ^uint64(0), 0),
	} {
		if _, err := ReadPrefetches(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadPrefetches accepted corrupt record", name)
		}
	}
}

// failWriter errors after n bytes, exercising the encoder's error paths.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errFail
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	f.n -= len(p)
	return len(p), nil
}

var errFail = &failError{}

type failError struct{}

func (*failError) Error() string { return "synthetic write failure" }

// TestWriteFailurePaths sweeps the failure point across a Writer's whole
// output: the I/O error surfaces by Flush at the latest and sticks.
func TestWriteFailurePaths(t *testing.T) {
	accs := []Access{{ID: 1, PC: 2, Addr: 192}, {ID: 5, PC: 9, Addr: 4096}}
	full := encode(t, accs)
	for n := 0; n < len(full); n++ {
		w := NewWriter(&failWriter{n: n})
		for _, a := range accs {
			w.Write(a)
		}
		err := w.Flush()
		if err == nil {
			t.Fatalf("Flush succeeded with a writer that fails after %d bytes", n)
		}
		if err2 := w.Write(accs[0]); err2 != err {
			t.Fatalf("Write after a failure = %v, want the sticky %v", err2, err)
		}
	}
}

func TestWritePrefetchesFailurePaths(t *testing.T) {
	pfs := []Prefetch{{ID: 1, Addr: 64}, {ID: 3, Addr: 128}}
	var full bytes.Buffer
	if err := WritePrefetches(&full, pfs); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < full.Len(); n++ {
		if err := WritePrefetches(&failWriter{n: n}, pfs); err == nil {
			t.Fatalf("WritePrefetches succeeded failing after %d bytes", n)
		}
	}
}
