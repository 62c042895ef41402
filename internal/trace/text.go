// Text form of the trace container, for interop with external tooling
// (spreadsheet exports, ChampSim-style CSV dumps, hand-written test
// traces). One record per line, `id pc addr [chain]`, fields separated by
// whitespace or commas, decimal or 0x-hex, with `#` comments and blank
// lines ignored. The decoder is strict: every field must be a finite
// unsigned integer — floats, NaN, and ±Inf (which numeric exporters love
// to emit for missing values) are rejected with the record's position
// rather than silently folded into addresses. TextReader decodes it; the
// repository writes traces only in the binary containers.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// TextReader is the streaming text trace decoder: a Source yielding one
// record per Next call. Errors carry the record number of the offending line, counted over records — comments and
// blank lines do not shift it. After a non-nil return the reader is
// exhausted: further calls repeat the same error.
type TextReader struct {
	sc      *bufio.Scanner
	rec     int
	prevID  uint64
	err     error
	flushed bool
}

// NewTextReader returns a streaming decoder of the text trace form.
func NewTextReader(r io.Reader) *TextReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &TextReader{sc: sc}
}

// finish latches the reader's terminal state and flushes the locally
// accumulated telemetry exactly once.
func (t *TextReader) finish(err error) error {
	t.err = err
	if !t.flushed {
		t.flushed = true
		if m := traceTele.Load(); m != nil {
			m.recordsDecoded.Add(uint64(t.rec))
			if err != io.EOF {
				m.decodeErrors.Inc()
			}
		}
	}
	return err
}

// Next implements Source.
func (t *TextReader) Next(a *Access) error {
	if t.err != nil {
		return t.err
	}
	for t.sc.Scan() {
		line := t.sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.FieldsFunc(line, func(r rune) bool {
			return r == ' ' || r == '\t' || r == ','
		})
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 3 || len(fields) > 4 {
			return t.finish(fmt.Errorf("trace: record %d: %d fields, want `id pc addr [chain]`", t.rec, len(fields)))
		}
		id, err := parseTextField(t.rec, "id", fields[0], ^uint64(0))
		if err != nil {
			return t.finish(err)
		}
		if t.rec > 0 && id < t.prevID {
			return t.finish(fmt.Errorf("trace: record %d: id %d < previous id %d", t.rec, id, t.prevID))
		}
		t.prevID = id
		pc, err := parseTextField(t.rec, "pc", fields[1], MaxAddr)
		if err != nil {
			return t.finish(err)
		}
		addr, err := parseTextField(t.rec, "addr", fields[2], MaxAddr)
		if err != nil {
			return t.finish(err)
		}
		chain := uint64(0)
		if len(fields) == 4 {
			if chain, err = parseTextField(t.rec, "chain", fields[3], 1<<32-1); err != nil {
				return t.finish(err)
			}
		}
		*a = Access{ID: id, PC: pc, Addr: addr, Chain: uint32(chain)}
		t.rec++
		return nil
	}
	if err := t.sc.Err(); err != nil {
		return t.finish(fmt.Errorf("trace: record %d: %w", t.rec, err))
	}
	return t.finish(io.EOF)
}

// parseTextField parses one text-form field as a finite unsigned integer
// no larger than max, with positioned errors. NaN, ±Inf, and float
// notation get targeted messages: they are what corrupt numeric exports
// actually contain.
func parseTextField(rec int, name, s string, max uint64) (uint64, error) {
	switch strings.ToLower(strings.TrimLeft(s, "+-")) {
	case "nan":
		return 0, fmt.Errorf("trace: record %d: %s is NaN, want a finite unsigned integer", rec, name)
	case "inf", "infinity":
		return 0, fmt.Errorf("trace: record %d: %s is %s, want a finite unsigned integer", rec, name, s)
	}
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		if _, ferr := strconv.ParseFloat(s, 64); ferr == nil {
			return 0, fmt.Errorf("trace: record %d: %s %q is not an unsigned integer", rec, name, s)
		}
		return 0, fmt.Errorf("trace: record %d: bad %s %q", rec, name, s)
	}
	if v > max {
		return 0, fmt.Errorf("trace: record %d: %s %#x out of range (max %#x)", rec, name, v, max)
	}
	return v, nil
}
