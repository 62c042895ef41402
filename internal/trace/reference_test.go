package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"

	"pathfinder/internal/telemetry"
)

// errRefOverflow is binary.ReadUvarint's overflow error, matched by text.
var errRefOverflow = errors.New("binary: varint overflows a 64-bit integer")

// longestRecord is the most bytes one record can take: four uvarints of
// at most binary.MaxVarintLen64 bytes. The Reader's fast path decodes out
// of a window this long.
const longestRecord = 4 * binary.MaxVarintLen64

// refDecode is the reference the streaming Reader is checked against: a
// binary.Uvarint walk over the raw container bytes, written apart from
// the Reader, with the Reader's validation and error strings. tail is the
// error the input ends with: io.EOF for a clean end, or the error a
// failing source returns once data is exhausted. It returns the records
// decoded before the first error, and that error.
func refDecode(data []byte, tail error) ([]Access, error) {
	if len(data) < len(magic) {
		err := tail
		if err == io.EOF && len(data) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	counted := false
	var n uint64
	switch string(data[:len(magic)]) {
	case "PFT2":
		counted = true
		data = data[len(magic):]
		v, err := refUvarint(&data, tail)
		if err != nil {
			return nil, fmt.Errorf("trace: reading count: %w", err)
		}
		if v > sanityMaxRecords {
			return nil, fmt.Errorf("trace: implausible record count %d", v)
		}
		n = v
	case "PFT3":
		data = data[len(magic):]
	default:
		return nil, errors.New("trace: bad magic; not a PFT2/PFT3 trace file")
	}
	var accs []Access
	var id uint64
	for i := uint64(0); !counted || i < n; i++ {
		if !counted && len(data) == 0 && tail == io.EOF {
			break
		}
		var f [4]uint64
		for j, field := range [4]string{"id", "pc", "addr", "chain"} {
			v, err := refUvarint(&data, tail)
			if err != nil {
				return accs, fmt.Errorf("trace: record %d %s: %w", i, field, err)
			}
			switch {
			case j == 0 && v > ^uint64(0)-id:
				return accs, fmt.Errorf("trace: record %d: id delta %d overflows the id sequence", i, v)
			case (j == 1 || j == 2) && v > MaxAddr:
				return accs, fmt.Errorf("trace: record %d: %s %#x beyond the canonical address space", i, field, v)
			case j == 3 && v > 1<<32-1:
				return accs, fmt.Errorf("trace: record %d chain %d overflows uint32", i, v)
			}
			f[j] = v
		}
		id += f[0]
		accs = append(accs, Access{ID: id, PC: f[1], Addr: f[2], Chain: uint32(f[3])})
	}
	return accs, nil
}

// refUvarint decodes one uvarint off the front of *b with binary.Uvarint
// and maps its outcomes onto binary.ReadUvarint's errors. ReadUvarint
// reports an overflow after ten continuation bytes without reading an
// eleventh, so ten of them at the end of the input overflow rather than
// run out.
func refUvarint(b *[]byte, tail error) (uint64, error) {
	v, n := binary.Uvarint(*b)
	switch {
	case n > 0:
		*b = (*b)[n:]
		return v, nil
	case n < 0 || len(*b) >= binary.MaxVarintLen64:
		return 0, errRefOverflow
	case tail == io.EOF && len(*b) > 0:
		return 0, io.ErrUnexpectedEOF
	default:
		return 0, tail
	}
}

// decodeAll drains NewReader(r). It returns the Reader (nil when the
// header fails), the records decoded before the first error, and that
// error (nil at a clean end).
func decodeAll(r io.Reader) (*Reader, []Access, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, nil, err
	}
	var accs []Access
	var a Access
	for {
		if err := rd.Next(&a); err != nil {
			if err == io.EOF {
				err = nil
			}
			return rd, accs, err
		}
		accs = append(accs, a)
	}
}

// diffDecode describes how a decode differs from the expected one, record
// by record and by error text; it returns "" when they agree.
func diffDecode(got []Access, gotErr error, want []Access, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	return ""
}

// stubReader yields data in reads of at most k bytes (any size when k is
// 0), then fails every Read with err.
type stubReader struct {
	data []byte
	k    int
	err  error
}

func (s *stubReader) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, s.err
	}
	if s.k > 0 && len(p) > s.k {
		p = p[:s.k]
	}
	n := copy(p, s.data)
	s.data = s.data[n:]
	return n, nil
}

// uvarints encodes vs as consecutive uvarints.
func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// recordBytes encodes accs as container records, ID deltas counted from 0.
func recordBytes(accs []Access) []byte {
	var b []byte
	prev := uint64(0)
	for _, a := range accs {
		b = append(b, uvarints(a.ID-prev, a.PC, a.Addr, uint64(a.Chain))...)
		prev = a.ID
	}
	return b
}

// pft3 and pft2 wrap record bytes in the unbounded and the counted
// container; pft2 declares n records.
func pft3(parts ...[]byte) []byte {
	return bytes.Join(append([][]byte{magic3[:]}, parts...), nil)
}

func pft2(n uint64, parts ...[]byte) []byte {
	return bytes.Join(append([][]byte{magic[:], uvarints(n)}, parts...), nil)
}

// oddRecords are records the word-at-a-time fast path must refuse or
// decode at its limits. The first four are the corrupt records of
// TestStreamSliceDecodeParity; the id delta overflows because the 1,000
// records placed before each one leave a nonzero running ID.
var oddRecords = []struct {
	name string
	rec  []byte
}{
	{"pc beyond address space", uvarints(0, MaxAddr+1, 0, 0)},
	{"addr beyond address space", uvarints(0, 0, MaxAddr+1, 0)},
	{"id delta overflow", uvarints(^uint64(0), 0, 0, 0)},
	{"chain overflow", uvarints(0, 0, 0, 1<<32)},
	{"ten continuation bytes", bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64)},
	{"tenth byte above 1", append(bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64-1), 0x02)},
	{"9-byte id delta", uvarints(1<<56, 7, 64, 1)},
	{"9-byte chain", uvarints(1, 7, 64, 1<<56)},
	{"non-minimal 9-byte id delta", bytes.Join([][]byte{paddedUvarint(129, 9), uvarints(2, 3, 4)}, nil)},
	{"non-minimal 9-byte pc", bytes.Join([][]byte{uvarints(1), paddedUvarint(130, 9), uvarints(3, 4)}, nil)},
	{"non-minimal 9-byte addr", bytes.Join([][]byte{uvarints(1, 2), paddedUvarint(131, 9), uvarints(4)}, nil)},
	{"non-minimal 9-byte chain", bytes.Join([][]byte{uvarints(1, 2, 3), paddedUvarint(132, 9)}, nil)},
	{"non-minimal 8-byte fields", bytes.Join([][]byte{paddedUvarint(5, 8), paddedUvarint(300, 8), paddedUvarint(1<<20, 8), paddedUvarint(1<<31, 8)}, nil)},
	{"widest fast-path fields", uvarints(1<<56-1, MaxAddr, MaxAddr, 1<<32-1)},
}

// paddedUvarint encodes v as a uvarint of exactly n bytes, padding it
// with continuation groups of zero bits: a valid, non-minimal encoding.
func paddedUvarint(v uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(v&0x7f) | 0x80
		v >>= 7
	}
	b[n-1] &^= 0x80
	return b
}

// TestReaderMatchesReference checks the Reader, record by record and
// error by error, against refDecode wherever its word-at-a-time fast path
// has to hand over to the byte-wise path, or could get a record wrong:
//
//   - each odd record after 1,000 valid ones and before at least
//     longestRecord more bytes, so it is first seen through a full window;
//   - records placed across bufio's 4,096-byte refill;
//   - inputs split into odd reads (iotest.OneByteReader, HalfReader,
//     DataErrReader) and inputs that fail mid-record with a non-EOF error.
//
// It also checks the decode telemetry and a counted container's
// Remaining.
func TestReaderMatchesReference(t *testing.T) {
	reg := telemetry.NewRegistry()
	EnableTelemetry(reg)
	defer EnableTelemetry(nil)

	readers := []struct {
		name string
		wrap func([]byte) io.Reader
	}{
		{"bytes", func(b []byte) io.Reader { return bytes.NewReader(b) }},
		{"OneByteReader", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
		{"HalfReader", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
		{"DataErrReader", func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) }},
	}
	check := func(name string, data []byte, declared uint64) {
		t.Helper()
		want, wantErr := refDecode(data, io.EOF)
		for _, rd := range readers {
			snap := reg.Snapshot()
			r, got, err := decodeAll(rd.wrap(data))
			if d := diffDecode(got, err, want, wantErr); d != "" {
				t.Errorf("%s via %s: %s", name, rd.name, d)
				continue
			}
			after := reg.Snapshot()
			if n := after.Counters["trace.records_decoded"] - snap.Counters["trace.records_decoded"]; n != uint64(len(want)) {
				t.Errorf("%s via %s: trace.records_decoded grew by %d, want %d", name, rd.name, n, len(want))
			}
			wantErrs := uint64(0)
			if wantErr != nil {
				wantErrs = 1
			}
			if n := after.Counters["trace.decode_errors"] - snap.Counters["trace.decode_errors"]; n != wantErrs {
				t.Errorf("%s via %s: trace.decode_errors grew by %d, want %d", name, rd.name, n, wantErrs)
			}
			if rem, ok := r.Remaining(); ok != (declared > 0) || rem != declared-min(declared, uint64(len(want))) {
				t.Errorf("%s via %s: Remaining = %d,%v after %d records of %d declared", name, rd.name, rem, ok, len(want), declared)
			}
		}
	}

	prefix := recordBytes(genAccesses(1000, 21))
	suffix := recordBytes(genAccesses(20, 22))
	if len(suffix) < longestRecord {
		t.Fatalf("suffix is %d bytes, want at least %d", len(suffix), longestRecord)
	}
	for _, tc := range oddRecords {
		check("PFT3 "+tc.name, pft3(prefix, tc.rec, suffix), 0)
		check("PFT2 "+tc.name, pft2(1021, prefix, tc.rec, suffix), 1021)
	}

	// An ID delta that overflows in 8 bytes, which the fast path decodes
	// whole: 256 deltas of 2^56-1 leave the running ID at 2^64-256.
	high := bytes.Repeat(uvarints(1<<56-1, 0, 0, 0), 256)
	high = append(high, bytes.Repeat(uvarints(0, 0, 0, 0), 744)...)
	check("PFT3 8-byte id delta overflow", pft3(high, uvarints(1<<56-1, 0, 0, 0), suffix), 0)
	check("PFT3 id reaching 2^64-1", pft3(high, uvarints(255, 0, 0, 0), bytes.Repeat(uvarints(0, 1, 2, 3), 20)), 0)

	// Each odd record starting at every offset from a full window before
	// the first 4,096-byte refill to past it. The filler is 4-byte records
	// plus one whose pc takes 1 + (start-4)%4 bytes.
	pcOfLen := []uint64{0, 1 << 7, 1 << 14, 1 << 21}
	for start := 4096 - longestRecord - 8; start <= 4096+8; start++ {
		q, r := (start-len(magic3))/4, (start-len(magic3))%4
		fill := append(uvarints(0, pcOfLen[r], 0, 0), bytes.Repeat(uvarints(0, 0, 0, 0), q-1)...)
		for _, tc := range oddRecords {
			check(fmt.Sprintf("%s at offset %d", tc.name, start), pft3(fill, tc.rec, suffix), 0)
		}
	}

	// Sources that fail with a non-EOF error: in the header, at a record
	// boundary, and mid-record after the fast path has run.
	boom := errors.New("boom")
	valid := pft3(prefix, suffix)
	counted := pft2(1020, prefix, suffix)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"in magic", valid[:2]},
		{"in count", counted[:5]},
		{"at record boundary", valid[:len(magic3)+len(prefix)]},
		{"mid-record", valid[:len(magic3)+len(prefix)+3]},
		{"mid-record, counted", counted[:len(counted)-len(suffix)+5]},
	} {
		want, wantErr := refDecode(tc.data, boom)
		_, got, err := decodeAll(&stubReader{data: tc.data, err: boom})
		if d := diffDecode(got, err, want, wantErr); d != "" {
			t.Errorf("failing %s: %s", tc.name, d)
		}
		if !errors.Is(err, boom) {
			t.Errorf("failing %s: error %v does not wrap the source's", tc.name, err)
		}
	}
}
