// Package serve is the prefetch-as-a-service layer behind cmd/pfserved: a
// long-lived daemon that accepts miss-stream events over a length-prefixed
// binary protocol, maintains per-session online prefetcher instances in
// one session table, and returns prefetch predictions — the serving form of PATHFINDER's
// real-time learning loop. One-shot evaluation jobs ride the same
// connection and run on the shared internal/runner engine pool.
//
// Determinism contract: a session's prediction stream is a pure function
// of the (ordered, deduplicated) event stream the server accepted for that
// session — bit-identical to driving the same prefetcher over the same
// accesses in process. Backpressure is bounded by construction: every
// queue in the daemon (per-session event queues, per-connection outbound
// queues) has a fixed capacity, and an event that would overflow one is
// rejected with an explicit "queue full, retry after" frame instead of
// being buffered. See docs/serving.md for the full protocol and lifecycle
// specification.
package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"pathfinder/internal/trace"
)

// Magic opens every connection: the client writes these four bytes before
// its first frame. A connection that opens with anything else draws a
// bad-request reject and is closed.
const Magic = "PFS1"

// MaxFrameBytes bounds one frame's payload. The length prefix is validated
// against it before any allocation, so a corrupt or hostile length cannot
// make the reader allocate unboundedly.
const MaxFrameBytes = 64 << 10

const (
	// maxPredictAddrs bounds the address list of one predict frame (far
	// above any sane per-access budget) and the budget JobFor accepts.
	maxPredictAddrs = 256
	// maxRejectMsg bounds the free-text message of a reject frame.
	maxRejectMsg = 256
)

// Frame kinds. Client-to-server: FrameEvent, FrameEval, FramePing.
// Server-to-client: FramePredict, FrameReject, FrameEvalResult, FramePong.
const (
	// FrameEvent carries one miss-stream access for a session: uvarint
	// session id, then the access as uvarint ID, PC, Addr, Chain. Event
	// IDs must be >= 1 and strictly increasing within a session.
	FrameEvent byte = 0x01
	// FramePredict answers one accepted event: uvarint session id, event
	// id, address count, then that many uvarint block-aligned byte
	// addresses (possibly zero).
	FramePredict byte = 0x02
	// FrameReject reports that an event (or frame) was not accepted:
	// uvarint session id, event id, one code byte, a uvarint retry hint in
	// milliseconds (zero: no hint), then an optional human-readable
	// message.
	FrameReject byte = 0x03
	// FrameEval submits a one-shot evaluation job; the payload body is an
	// EvalRequest in JSON.
	FrameEval byte = 0x04
	// FrameEvalResult answers a FrameEval; the body is an EvalResponse in
	// JSON.
	FrameEvalResult byte = 0x05
	// FramePing is a liveness probe; the server answers FramePong.
	FramePing byte = 0x06
	// FramePong answers FramePing.
	FramePong byte = 0x07
)

// Reject codes carried by FrameReject.
const (
	// RejectQueueFull: the session's bounded event queue (or its go-back
	// window after an earlier shed) had no room. The event was NOT
	// accepted; resend it — and everything after it, in order — after the
	// retry hint.
	RejectQueueFull byte = 1
	// RejectMaxSessions: the session table holds MaxSessions sessions and
	// every one has work in flight, so nothing could be evicted.
	RejectMaxSessions byte = 2
	// RejectOverloaded: the global in-flight event cap was reached.
	// Semantics match RejectQueueFull (the event was not accepted).
	RejectOverloaded byte = 3
	// RejectDraining: the server is shutting down and accepts no new work.
	RejectDraining byte = 4
	// RejectStale: the event id is not greater than the session's last
	// accepted id. The event was already accepted earlier (a retry after a
	// lost reply); skip it and continue with the next one.
	RejectStale byte = 5
	// RejectBadRequest: the frame was malformed or the session could not
	// be created. A malformed frame also closes the connection.
	RejectBadRequest byte = 6
)

// rejectCodeNames maps reject codes to their stable names.
var rejectCodeNames = map[byte]string{
	RejectQueueFull:   "queue-full",
	RejectMaxSessions: "max-sessions",
	RejectOverloaded:  "overloaded",
	RejectDraining:    "draining",
	RejectStale:       "stale",
	RejectBadRequest:  "bad-request",
}

// RejectCodeName returns the stable string name of a reject code, for
// logs and error messages.
func RejectCodeName(code byte) string {
	if n, ok := rejectCodeNames[code]; ok {
		return n
	}
	return fmt.Sprintf("code(%d)", code)
}

// Frame is one decoded protocol frame. ParseFrame reuses the receiver's
// Addrs capacity and aliases Body into the input payload; copy either
// before the payload buffer is reused.
type Frame struct {
	// Kind is the frame type (FrameEvent, FramePredict, ...).
	Kind byte
	// Session identifies the session for event/predict/reject frames.
	Session uint64
	// Event is the decoded access of a FrameEvent.
	Event trace.Access
	// ID is the event id a FramePredict or FrameReject refers to.
	ID uint64
	// Addrs are the predicted prefetch byte addresses of a FramePredict.
	Addrs []uint64
	// Code is the FrameReject reject code.
	Code byte
	// RetryMillis is the FrameReject retry hint in milliseconds.
	RetryMillis uint64
	// Msg is the FrameReject free-text message.
	Msg string
	// Body is the JSON body of a FrameEval / FrameEvalResult (aliases the
	// parsed payload).
	Body []byte
}

// errShort is the positioned truncation error base.
var errShort = errors.New("serve: truncated frame")

// uvarintAt decodes a uvarint at *pos, advancing it.
func uvarintAt(b []byte, pos *int, field string) (uint64, error) {
	v, n := binary.Uvarint(b[*pos:])
	if n <= 0 {
		return 0, fmt.Errorf("serve: frame byte %d: bad uvarint %s: %w", *pos, field, errShort)
	}
	*pos += n
	return v, nil
}

// ParseFrame decodes one frame payload (the bytes after the length prefix)
// into f. It validates every field — event addresses against the canonical
// address space, counts against the protocol bounds, and trailing garbage
// — so a frame that parses is safe to act on.
func ParseFrame(payload []byte, f *Frame) error {
	if len(payload) == 0 {
		return errors.New("serve: empty frame")
	}
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("serve: frame of %d bytes exceeds the %d-byte cap", len(payload), MaxFrameBytes)
	}
	*f = Frame{Kind: payload[0], Addrs: f.Addrs[:0]}
	pos := 1
	switch f.Kind {
	case FrameEvent:
		var err error
		if f.Session, err = uvarintAt(payload, &pos, "session"); err != nil {
			return err
		}
		if f.Event.ID, err = uvarintAt(payload, &pos, "id"); err != nil {
			return err
		}
		if f.Event.ID == 0 {
			return errors.New("serve: event frame: id must be >= 1")
		}
		if f.Event.PC, err = uvarintAt(payload, &pos, "pc"); err != nil {
			return err
		}
		if f.Event.PC > trace.MaxAddr {
			return fmt.Errorf("serve: event frame: pc %#x beyond the canonical address space", f.Event.PC)
		}
		if f.Event.Addr, err = uvarintAt(payload, &pos, "addr"); err != nil {
			return err
		}
		if f.Event.Addr > trace.MaxAddr {
			return fmt.Errorf("serve: event frame: addr %#x beyond the canonical address space", f.Event.Addr)
		}
		chain, err := uvarintAt(payload, &pos, "chain")
		if err != nil {
			return err
		}
		if chain > math.MaxUint32 {
			return fmt.Errorf("serve: event frame: chain %d overflows uint32", chain)
		}
		f.Event.Chain = uint32(chain)
	case FramePredict:
		var err error
		if f.Session, err = uvarintAt(payload, &pos, "session"); err != nil {
			return err
		}
		if f.ID, err = uvarintAt(payload, &pos, "id"); err != nil {
			return err
		}
		n, err := uvarintAt(payload, &pos, "count")
		if err != nil {
			return err
		}
		if n > maxPredictAddrs {
			return fmt.Errorf("serve: predict frame: %d addresses exceeds the %d cap", n, maxPredictAddrs)
		}
		for i := uint64(0); i < n; i++ {
			a, err := uvarintAt(payload, &pos, "prefetch addr")
			if err != nil {
				return err
			}
			if a > trace.MaxAddr {
				return fmt.Errorf("serve: predict frame: addr %#x beyond the canonical address space", a)
			}
			f.Addrs = append(f.Addrs, a)
		}
	case FrameReject:
		var err error
		if f.Session, err = uvarintAt(payload, &pos, "session"); err != nil {
			return err
		}
		if f.ID, err = uvarintAt(payload, &pos, "id"); err != nil {
			return err
		}
		if pos >= len(payload) {
			return fmt.Errorf("serve: reject frame: missing code: %w", errShort)
		}
		f.Code = payload[pos]
		pos++
		if f.Code == 0 || f.Code > RejectBadRequest {
			return fmt.Errorf("serve: reject frame: unknown code %d", f.Code)
		}
		if f.RetryMillis, err = uvarintAt(payload, &pos, "retry"); err != nil {
			return err
		}
		msg := payload[pos:]
		if len(msg) > maxRejectMsg {
			return fmt.Errorf("serve: reject frame: %d-byte message exceeds the %d cap", len(msg), maxRejectMsg)
		}
		f.Msg = string(msg)
		return nil // message consumes the remainder
	case FrameEval, FrameEvalResult:
		if pos >= len(payload) {
			return errors.New("serve: eval frame: empty body")
		}
		f.Body = payload[pos:]
		return nil // body consumes the remainder
	case FramePing, FramePong:
		// No body.
	default:
		return fmt.Errorf("serve: unknown frame kind %#x", f.Kind)
	}
	if pos != len(payload) {
		return fmt.Errorf("serve: frame has %d trailing bytes", len(payload)-pos)
	}
	return nil
}

// AppendEventFrame appends an encoded event frame payload (no length
// prefix) to dst.
func AppendEventFrame(dst []byte, session uint64, a trace.Access) []byte {
	dst = append(dst, FrameEvent)
	dst = binary.AppendUvarint(dst, session)
	dst = binary.AppendUvarint(dst, a.ID)
	dst = binary.AppendUvarint(dst, a.PC)
	dst = binary.AppendUvarint(dst, a.Addr)
	dst = binary.AppendUvarint(dst, uint64(a.Chain))
	return dst
}

// AppendPredictFrame appends an encoded predict frame payload to dst.
func AppendPredictFrame(dst []byte, session, id uint64, addrs []uint64) []byte {
	dst = append(dst, FramePredict)
	dst = binary.AppendUvarint(dst, session)
	dst = binary.AppendUvarint(dst, id)
	dst = binary.AppendUvarint(dst, uint64(len(addrs)))
	for _, a := range addrs {
		dst = binary.AppendUvarint(dst, a)
	}
	return dst
}

// AppendRejectFrame appends an encoded reject frame payload to dst.
func AppendRejectFrame(dst []byte, session, id uint64, code byte, retryMillis uint64, msg string) []byte {
	if len(msg) > maxRejectMsg {
		msg = msg[:maxRejectMsg]
	}
	dst = append(dst, FrameReject)
	dst = binary.AppendUvarint(dst, session)
	dst = binary.AppendUvarint(dst, id)
	dst = append(dst, code)
	dst = binary.AppendUvarint(dst, retryMillis)
	return append(dst, msg...)
}

// AppendEvalFrame appends an encoded eval-request frame payload to dst.
func AppendEvalFrame(dst, body []byte) []byte {
	return append(append(dst, FrameEval), body...)
}

// AppendEvalResultFrame appends an encoded eval-result frame payload to dst.
func AppendEvalResultFrame(dst, body []byte) []byte {
	return append(append(dst, FrameEvalResult), body...)
}

// AppendPingFrame appends an encoded ping frame payload to dst.
func AppendPingFrame(dst []byte) []byte { return append(dst, FramePing) }

// AppendPongFrame appends an encoded pong frame payload to dst.
func AppendPongFrame(dst []byte) []byte { return append(dst, FramePong) }

// WriteFrame writes one length-prefixed frame (4-byte big-endian payload
// length, then the payload) to w.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) == 0 || len(payload) > MaxFrameBytes {
		return fmt.Errorf("serve: refusing to write a %d-byte frame", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// FrameReader decodes length-prefixed frames from a stream, reusing one
// internal buffer: the payload returned by Next is valid only until the
// following Next call.
type FrameReader struct {
	br  *bufio.Reader
	buf []byte
}

// NewFrameReader wraps r. If r is already a *bufio.Reader it is used
// directly (so a connection's sniffed bytes are not lost).
func NewFrameReader(r io.Reader) *FrameReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &FrameReader{br: br}
}

// Next reads one frame payload. It returns io.EOF at a clean frame
// boundary and io.ErrUnexpectedEOF inside a frame.
func (fr *FrameReader) Next() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fr.br, hdr[:1]); err != nil {
		return nil, err // clean EOF before a frame
	}
	if _, err := io.ReadFull(fr.br, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, errors.New("serve: zero-length frame")
	}
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("serve: frame length %d exceeds the %d-byte cap", n, MaxFrameBytes)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.br, fr.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return fr.buf, nil
}
