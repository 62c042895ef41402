// Streaming form of the trace container: a pull-based Source iterator plus
// incremental decoders and encoders, so traces of any length — gigabyte
// files, live capture pipes — replay in constant memory. Collect
// materializes any Source into a slice.
//
// Containers:
//
//   - "PFT2": counted — magic, uvarint record count, records. The
//     decoder knows the length up front and can pre-size collections.
//     The repository no longer writes it; NewReader still decodes it.
//   - "PFT3" (Writer): unbounded — magic, records until EOF. This is the
//     piping format: an encoder that does not know the record count when
//     the first record leaves (tracegen -o -, live capture adapters).
//
// Both carry the same record bytes.
//
// NewReader decodes both; NewAutoReader additionally sniffs the text form.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// Source is the pull-based trace iterator the streaming stack is built on:
// decoders, workload generators, and the simulator's replay loop all speak
// it. Next fills *a with the next record and returns nil, or returns io.EOF
// after the last record, or a decoding/validation error positioned at the
// failing record. After a non-nil return the Source is exhausted: further
// calls return the same error.
type Source interface {
	Next(a *Access) error
}

// magic identifies the counted binary trace container (PFT2), magic3 the
// unbounded stream (PFT3).
var (
	magic  = [4]byte{'P', 'F', 'T', '2'}
	magic3 = [4]byte{'P', 'F', 'T', '3'}
)

// SliceSource adapts an in-memory []Access to the Source interface, keeping
// the old materialized shape usable wherever a Source is now expected.
type SliceSource struct {
	accs []Access
	i    int
}

// NewSliceSource returns a Source yielding the slice's records in order.
// The slice is not copied; it must not be mutated while the source is read.
func NewSliceSource(accs []Access) *SliceSource { return &SliceSource{accs: accs} }

// Next implements Source.
func (s *SliceSource) Next(a *Access) error {
	if s.i >= len(s.accs) {
		return io.EOF
	}
	*a = s.accs[s.i]
	s.i++
	return nil
}

// Remaining reports how many records are left, enabling pre-sized collects.
func (s *SliceSource) Remaining() (uint64, bool) { return uint64(len(s.accs) - s.i), true }

// Reset rewinds the source to the first record.
func (s *SliceSource) Reset() { s.i = 0 }

// Collect drains a Source into a slice — the bridge back from the
// streaming world for consumers that genuinely need random access (offline
// trainers, delta statistics). Sources exposing Remaining() (uint64, bool)
// get a pre-sized destination (see Presize).
func Collect(src Source) ([]Access, error) {
	var accs []Access
	if n, ok := Presize(src); ok {
		accs = make([]Access, 0, n)
	}
	// One record variable for the whole drain: declared per iteration, it
	// escapes through the Source interface and costs a heap object per
	// record.
	var a Access
	for {
		if err := src.Next(&a); err != nil {
			if err == io.EOF {
				return accs, nil
			}
			return nil, err
		}
		accs = append(accs, a)
	}
}

// HashSource drains src, folding every record into one FNV-1a hash, and
// returns the hash with the record count. It is the golden-hash primitive
// of the streaming parity tests and the content digest cmd tools key their
// caches by: two streams are the same trace iff (hash, n) match.
func HashSource(src Source) (hash uint64, n uint64, err error) {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	var a Access
	for {
		if err := src.Next(&a); err != nil {
			if err == io.EOF {
				return h, n, nil
			}
			return 0, n, err
		}
		mix(a.ID)
		mix(a.PC)
		mix(a.Addr)
		mix(uint64(a.Chain))
		n++
	}
}

// sanityMaxRecords bounds declared record counts: a counted container
// claiming more is a corrupt or hostile header, not a real trace.
const sanityMaxRecords = 1 << 30

// presizeMax caps the capacity allocated up front from a declared record
// count. A header is a claim, not an allocation budget: a few bytes
// declaring a billion records must not cost gigabytes before the first
// record decodes, so longer traces grow as their records arrive.
const presizeMax = 1 << 20

// Presize reports how many records a consumer draining src should
// allocate for up front: the count src declares through Remaining,
// capped at presizeMax. ok is false when src declares no count.
func Presize(src Source) (n uint64, ok bool) {
	s, ok := src.(interface{ Remaining() (uint64, bool) })
	if !ok {
		return 0, false
	}
	n, ok = s.Remaining()
	return min(n, presizeMax), ok
}

// Reader is the streaming binary trace decoder: it accepts both the
// counted PFT2 container and the unbounded PFT3 stream container and
// yields one record per Next call. Steady-state decoding performs no
// allocations; validation (monotonic IDs, canonical address space, chain
// width) matches the slice decoder exactly, with the same positioned
// errors — Read is implemented on top of Reader.
type Reader struct {
	br      *bufio.Reader
	counted bool   // PFT2: the header declared a record count
	n       uint64 // remaining declared records (counted mode)
	i       uint64 // records decoded so far (error positions)
	id      uint64 // running instruction id
	err     error  // sticky terminal state (io.EOF or the first error)
	flushed bool   // telemetry flushed
}

// NewReader begins decoding a binary trace container from r. It consumes
// and validates the header (magic, and the record count for PFT2)
// immediately, so a non-trace input fails here rather than on first Next.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	rd := &Reader{br: br}
	switch m {
	case magic:
		rd.counted = true
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: reading count: %w", err)
		}
		if n > sanityMaxRecords {
			return nil, fmt.Errorf("trace: implausible record count %d", n)
		}
		rd.n = n
	case magic3:
		// Unbounded stream: records until a clean EOF at a record boundary.
	default:
		return nil, errors.New("trace: bad magic; not a PFT2/PFT3 trace file")
	}
	return rd, nil
}

// Remaining reports the declared records left in a counted (PFT2)
// container; unbounded streams return false.
func (r *Reader) Remaining() (uint64, bool) {
	if !r.counted {
		return 0, false
	}
	return r.n, true
}

// finish latches the reader's terminal state and flushes the locally
// accumulated telemetry exactly once (records decoded; whether the stream
// ended in a decode error).
func (r *Reader) finish(err error) error {
	r.err = err
	if !r.flushed {
		r.flushed = true
		if m := traceTele.Load(); m != nil {
			m.recordsDecoded.Add(r.i)
			if err != io.EOF {
				m.decodeErrors.Inc()
			}
		}
	}
	return err
}

// Next implements Source: it decodes one record into *a, returning io.EOF
// after the final record and positioned errors for corrupt ones.
//
// While a whole record's worth of bytes (maxRecordLen) is buffered, Next
// decodes the record word-at-a-time straight out of the bufio.Reader's
// buffer (decodeWindow). That fast path only ever accepts a record the
// byte-wise path would decode identically; every other record, and every
// record of the last maxRecordLen bytes before a refill or the end of the
// stream, is left unconsumed for readRecord, which positions the errors.
// Neither path waits for more bytes than the record it returns.
func (r *Reader) Next(a *Access) error {
	if r.err != nil {
		return r.err
	}
	if r.counted && r.n == 0 {
		return r.finish(io.EOF)
	}
	n := 0
	if r.br.Buffered() >= maxRecordLen {
		w, _ := r.br.Peek(maxRecordLen) // buffered: cannot fail
		n = decodeWindow((*[maxRecordLen]byte)(w), r.id, a)
	}
	if n > 0 {
		r.br.Discard(n) // n bytes are buffered: cannot fail
	} else if err := r.readRecord(a); err != nil {
		return r.finish(err)
	}
	r.id = a.ID
	r.i++
	if r.counted {
		r.n--
	}
	return nil
}

// readRecord decodes the next record into *a byte by byte through
// binary.ReadUvarint, validating each field as it arrives. *a is written
// only when the whole record is valid. A clean EOF before the first byte
// of a PFT3 record is returned bare; every other failure is positioned
// at record r.i.
func (r *Reader) readRecord(a *Access) error {
	d, err := binary.ReadUvarint(r.br)
	if err != nil {
		if !r.counted && err == io.EOF {
			// A clean end at a record boundary terminates a PFT3 stream.
			return io.EOF
		}
		return fmt.Errorf("trace: record %d id: %w", r.i, err)
	}
	if d > ^uint64(0)-r.id {
		return fmt.Errorf("trace: record %d: id delta %d overflows the id sequence", r.i, d)
	}
	pc, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("trace: record %d pc: %w", r.i, err)
	}
	if pc > MaxAddr {
		return fmt.Errorf("trace: record %d: pc %#x beyond the canonical address space", r.i, pc)
	}
	addr, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("trace: record %d addr: %w", r.i, err)
	}
	if addr > MaxAddr {
		return fmt.Errorf("trace: record %d: addr %#x beyond the canonical address space", r.i, addr)
	}
	chain, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("trace: record %d chain: %w", r.i, err)
	}
	if chain > 1<<32-1 {
		return fmt.Errorf("trace: record %d chain %d overflows uint32", r.i, chain)
	}
	*a = Access{ID: r.id + d, PC: pc, Addr: addr, Chain: uint32(chain)}
	return nil
}

// maxRecordLen bounds one encoded record: four uvarints of at most
// binary.MaxVarintLen64 bytes each.
const maxRecordLen = 4 * binary.MaxVarintLen64

// decodeWindow decodes the record at the start of w, whose ID delta
// counts from id, into *a and returns its encoded length. It returns 0,
// leaving *a untouched, for a record it does not accept: a field longer
// than 8 bytes, an ID delta that overflows the ID sequence, a PC or
// address above MaxAddr, or a chain above 2^32-1.
//
// A uvarint ends at the first byte whose high bit is clear. The four
// fields' stop bytes are found together in the first 32 bytes (four
// fields of at most 8 bytes fit there), then each field is one 8-byte
// little-endian load whose 7-bit groups are compacted by shifts and masks.
func decodeWindow(w *[maxRecordLen]byte, id uint64, a *Access) int {
	le := binary.LittleEndian
	stops := stopBytes(le.Uint64(w[0:])) | stopBytes(le.Uint64(w[8:]))<<8 |
		stopBytes(le.Uint64(w[16:]))<<16 | stopBytes(le.Uint64(w[24:]))<<24
	// e0..e3 index the fields' stop bytes, 64 once stops runs out. With
	// fewer than four stops the first missing field's length is then at
	// least 64-31, so the length check below refuses the record.
	e0 := uint(bits.TrailingZeros64(stops))
	stops &= stops - 1
	e1 := uint(bits.TrailingZeros64(stops))
	stops &= stops - 1
	e2 := uint(bits.TrailingZeros64(stops))
	stops &= stops - 1
	e3 := uint(bits.TrailingZeros64(stops))
	if e0 >= 8 || e1-e0 > 8 || e2-e1 > 8 || e3-e2 > 8 {
		return 0
	}
	// Masking the offsets (each at most 24) with 31 changes none of them
	// but lets the compiler drop the loads' bounds checks.
	d := uvarintWord(le.Uint64(w[0:]), e0+1)
	pc := uvarintWord(le.Uint64(w[(e0+1)&31:]), e1-e0)
	addr := uvarintWord(le.Uint64(w[(e1+1)&31:]), e2-e1)
	chain := uvarintWord(le.Uint64(w[(e2+1)&31:]), e3-e2)
	if d > ^uint64(0)-id || pc > MaxAddr || addr > MaxAddr || chain > 1<<32-1 {
		return 0
	}
	*a = Access{ID: id + d, PC: pc, Addr: addr, Chain: uint32(chain)}
	return int(e3 + 1)
}

// stopBytes returns one bit per byte of the little-endian word x, set for
// each byte that ends a uvarint (its continuation bit is clear). The
// multiply gathers the eight isolated bits into the top byte without
// carries.
func stopBytes(x uint64) uint64 {
	return (^x & 0x8080808080808080 >> 7) * 0x0102040810204080 >> 56
}

// uvarintWord decodes the uvarint held in the low n bytes (1 <= n <= 8) of
// the little-endian word x: it drops the other bytes and the continuation
// bits, then packs the 7-bit groups pairwise into 14-, 28- and 56-bit runs.
func uvarintWord(x uint64, n uint) uint64 {
	x &= ^uint64(0) >> ((64 - 8*n) & 63) & 0x7f7f7f7f7f7f7f7f
	x = x&0x007f007f007f007f | x&0x7f007f007f007f00>>1
	x = x&0x00003fff00003fff | x&0x3fff00003fff0000>>2
	return x&0x000000000fffffff | x&0x0fffffff00000000>>4
}

// Writer is the streaming binary trace encoder. It emits the unbounded
// PFT3 container — the record count need not be known when encoding
// starts, which is what lets tracegen pipe to stdout and capture adapters
// encode live streams. Records are validated incrementally with positioned
// errors; a validation or I/O error is sticky and nothing further is
// written.
type Writer struct {
	bw     *bufio.Writer
	buf    [maxRecordLen]byte
	i      uint64 // records written (error positions)
	prevID uint64
	err    error
}

// NewWriter returns a streaming encoder writing the PFT3 container to w.
// The magic waits in the buffer until the first flush, so constructing a
// Writer performs no I/O.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	bw.Write(magic3[:]) // an empty buffer takes 4 bytes without I/O or error
	return &Writer{bw: bw}
}

// Write validates a (non-decreasing IDs, canonical-address-space PC and
// Addr) and writes its four uvarints in one buffered write.
func (w *Writer) Write(a Access) error {
	if w.err != nil {
		return w.err
	}
	switch {
	case a.ID < w.prevID:
		w.err = fmt.Errorf("trace: access %d has ID %d < previous ID %d", w.i, a.ID, w.prevID)
	case a.PC > MaxAddr:
		w.err = fmt.Errorf("trace: access %d has pc %#x beyond the canonical address space", w.i, a.PC)
	case a.Addr > MaxAddr:
		w.err = fmt.Errorf("trace: access %d has addr %#x beyond the canonical address space", w.i, a.Addr)
	default:
		b := binary.AppendUvarint(w.buf[:0], a.ID-w.prevID)
		b = binary.AppendUvarint(b, a.PC)
		b = binary.AppendUvarint(b, a.Addr)
		b = binary.AppendUvarint(b, uint64(a.Chain))
		w.prevID = a.ID
		w.i++
		_, w.err = w.bw.Write(b)
	}
	return w.err
}

// Flush completes the stream: it drains the buffer, the magic included,
// to the underlying writer, so a Writer with no records still emits an
// empty but valid PFT3 trace. Call it once after the last record.
func (w *Writer) Flush() error {
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	return w.err
}

// Encode drains src through a streaming Writer into w.
func Encode(w io.Writer, src Source) error {
	enc := NewWriter(w)
	var a Access
	for {
		if err := src.Next(&a); err != nil {
			if err == io.EOF {
				return enc.Flush()
			}
			return err
		}
		if err := enc.Write(a); err != nil {
			return err
		}
	}
}

// NewAutoReader sniffs the container format and returns the matching
// streaming decoder: PFT2/PFT3 magic selects the binary Reader, anything
// else is decoded as the text trace form. This is what lets cmd tools
// accept either format on stdin.
func NewAutoReader(r io.Reader) (Source, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if err == nil && len(head) == 4 {
		var m [4]byte
		copy(m[:], head)
		if m == magic || m == magic3 {
			return NewReader(br)
		}
	}
	return NewTextReader(br), nil
}
