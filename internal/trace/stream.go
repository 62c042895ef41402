// Streaming form of the trace container: a pull-based Source iterator plus
// incremental decoders and encoders, so traces of any length — gigabyte
// files, live capture pipes — replay in constant memory. The slice entry
// points (Read, ReadText, Write, WriteText) are retained as conveniences
// and are themselves built on the streaming layer, so the two paths cannot
// drift: they share one decoder and produce identical records and identical
// positioned errors by construction.
//
// Containers:
//
//   - "PFT2" (Write): counted — magic, uvarint record count, records. The
//     decoder knows the length up front and can pre-size collections.
//   - "PFT3" (Writer): unbounded — magic, records until EOF. This is the
//     piping format: an encoder that does not know the record count when
//     the first record leaves (tracegen -o -, live capture adapters).
//
// NewReader decodes both; NewAutoReader additionally sniffs the text form.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

// magic3 identifies the unbounded (stream) binary trace container.
var magic3 = [4]byte{'P', 'F', 'T', '3'}

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
func (r *Reader) Next(a *Access) error {
	if r.err != nil {
		return r.err
	}
	if r.counted && r.n == 0 {
		return r.finish(io.EOF)
	}
	d, err := binary.ReadUvarint(r.br)
	if err != nil {
		if !r.counted && err == io.EOF {
			// A clean end at a record boundary terminates a PFT3 stream.
			return r.finish(io.EOF)
		}
		return r.finish(fmt.Errorf("trace: record %d id: %w", r.i, err))
	}
	if d > ^uint64(0)-r.id {
		return r.finish(fmt.Errorf("trace: record %d: id delta %d overflows the id sequence", r.i, d))
	}
	id := r.id + d
	pc, err := binary.ReadUvarint(r.br)
	if err != nil {
		return r.finish(fmt.Errorf("trace: record %d pc: %w", r.i, err))
	}
	if pc > MaxAddr {
		return r.finish(fmt.Errorf("trace: record %d: pc %#x beyond the canonical address space", r.i, pc))
	}
	addr, err := binary.ReadUvarint(r.br)
	if err != nil {
		return r.finish(fmt.Errorf("trace: record %d addr: %w", r.i, err))
	}
	if addr > MaxAddr {
		return r.finish(fmt.Errorf("trace: record %d: addr %#x beyond the canonical address space", r.i, addr))
	}
	chain, err := binary.ReadUvarint(r.br)
	if err != nil {
		return r.finish(fmt.Errorf("trace: record %d chain: %w", r.i, err))
	}
	if chain > 1<<32-1 {
		return r.finish(fmt.Errorf("trace: record %d chain %d overflows uint32", r.i, chain))
	}
	r.id = id
	r.i++
	if r.counted {
		r.n--
	}
	*a = Access{ID: id, PC: pc, Addr: addr, Chain: uint32(chain)}
	return nil
}

// Writer is the streaming binary trace encoder. It emits the unbounded
// PFT3 container — the record count need not be known when encoding
// starts, which is what lets tracegen pipe to stdout and capture adapters
// encode live streams. Records are validated incrementally with the same
// positioned errors as the slice encoder; a validation or I/O error is
// sticky and nothing further is written.
type Writer struct {
	bw      *bufio.Writer
	buf     [binary.MaxVarintLen64]byte
	i       uint64 // records written (error positions)
	prevID  uint64
	started bool // magic written
	err     error
}

// NewWriter returns a streaming encoder writing the PFT3 container to w.
// The magic is emitted with the first record (or Flush), so constructing a
// Writer performs no I/O.
func NewWriter(w io.Writer) *Writer { return &Writer{bw: bufio.NewWriter(w)} }

func (w *Writer) start() error {
	if w.started {
		return nil
	}
	w.started = true
	_, err := w.bw.Write(magic3[:])
	return err
}

func (w *Writer) put(v uint64) error {
	n := binary.PutUvarint(w.buf[:], v)
	_, err := w.bw.Write(w.buf[:n])
	return err
}

// Write validates and encodes one record. Validation mirrors the slice
// encoder: non-decreasing IDs and canonical-address-space PC/Addr.
func (w *Writer) Write(a Access) error {
	if w.err != nil {
		return w.err
	}
	fail := func(err error) error {
		w.err = err
		return err
	}
	if a.ID < w.prevID {
		return fail(fmt.Errorf("trace: access %d has ID %d < previous ID %d", w.i, a.ID, w.prevID))
	}
	if a.PC > MaxAddr {
		return fail(fmt.Errorf("trace: access %d has pc %#x beyond the canonical address space", w.i, a.PC))
	}
	if a.Addr > MaxAddr {
		return fail(fmt.Errorf("trace: access %d has addr %#x beyond the canonical address space", w.i, a.Addr))
	}
	if err := w.start(); err != nil {
		return fail(err)
	}
	if err := w.put(a.ID - w.prevID); err != nil {
		return fail(err)
	}
	w.prevID = a.ID
	if err := w.put(a.PC); err != nil {
		return fail(err)
	}
	if err := w.put(a.Addr); err != nil {
		return fail(err)
	}
	if err := w.put(uint64(a.Chain)); err != nil {
		return fail(err)
	}
	w.i++
	return nil
}

// Flush completes the stream: it emits the magic if no record was written
// (an empty but valid PFT3 trace) and drains the buffer to the underlying
// writer. Call it once after the last record.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.start(); err != nil {
		w.err = err
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Encode drains src through a streaming Writer into w — the constant-memory
// counterpart of Write for unbounded inputs.
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
