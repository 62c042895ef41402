package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"pathfinder/internal/runner"
	"pathfinder/internal/serve"
)

// crossGrid is a grid file naming traces × prefetchers × seeds.
func crossGrid(traces, prefetchers, seeds int) string {
	g := GridSpec{}
	for i := 0; i < traces; i++ {
		g.Traces = append(g.Traces, fmt.Sprintf("t%d", i))
	}
	for i := 0; i < prefetchers; i++ {
		g.Prefetchers = append(g.Prefetchers, fmt.Sprintf("p%d", i))
	}
	for i := 0; i < seeds; i++ {
		g.Seeds = append(g.Seeds, int64(i+1))
	}
	b, _ := json.Marshal(g)
	return string(b)
}

// gridVectors are known grid files: the cells a valid one expands to, or
// the error an invalid one must draw.
var gridVectors = []struct {
	name  string
	data  string
	cells int    // expanded cell count when valid
	err   string // error substring when invalid
}{
	{"cross product", `{"traces":["cc-5"],"prefetchers":["nextline","bo"],"loads":1000}`, 2, ""},
	{"seeds", `{"traces":["a","b"],"prefetchers":["p"],"seeds":[1,2,3]}`, 6, ""},
	{"cells only", `{"cells":[{"trace":"cc-5","prefetcher":"sisb","budget":4}]}`, 1, ""},
	{"cross and cells", `{"traces":["a"],"prefetchers":["p"],"cells":[{"trace":"b","prefetcher":"q"}]}`, 2, ""},
	{"traces without prefetchers", `{"traces":["a","b"],"cells":[{"trace":"c","prefetcher":"r"}]}`, 1, ""},
	{"at the cap", crossGrid(100, 100, 10), MaxGridCells, ""},
	{"empty", `{}`, 0, "no cells"},
	{"empty cross product", `{"traces":["a"],"prefetchers":[]}`, 0, "no cells"},
	{"one past the cap", crossGrid(100, 100, 10)[:len(crossGrid(100, 100, 10))-1] + `,"cells":[{}]}`, 0, "more than"},
	{"a million cells", crossGrid(100, 100, 100), 0, "more than"},
	{"not JSON", `traces: [a]`, 0, "invalid character"},
	{"wrong type", `{"traces":"cc-5"}`, 0, "cannot unmarshal"},
	{"fractional loads", `{"traces":["a"],"prefetchers":["p"],"loads":1.5}`, 0, "cannot unmarshal"},
	{"truncated", `{"traces":["a"],"prefetchers":["p"`, 0, "unexpected end"},
}

// TestParseGridVectors checks every known grid file, and that LoadGrid
// refuses an oversized grid before it expands it.
func TestParseGridVectors(t *testing.T) {
	for _, v := range gridVectors {
		specs, err := parseGrid("grid.json", []byte(v.data))
		if v.err != "" {
			if err == nil || !strings.Contains(err.Error(), v.err) {
				t.Errorf("%s: err = %v, want one containing %q", v.name, err, v.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", v.name, err)
			continue
		}
		if len(specs) != v.cells || cap(specs) != v.cells {
			t.Errorf("%s: %d cells (cap %d), want %d", v.name, len(specs), cap(specs), v.cells)
		}
	}
	million := []byte(crossGrid(100, 100, 100))
	if allocated := allocatedBy(func() { parseGrid("grid.json", million) }); allocated > 4<<20 {
		t.Errorf("refusing a %d-byte million-cell grid allocated %d bytes", len(million), allocated)
	}
}

// allocatedBy returns the bytes the heap allocated while fn ran.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzLoadGrid fuzzes the grid-file decoder: it never panics, allocates
// in proportion to its input and the cell cap rather than to the cross
// product a file names, and every accepted grid re-marshals as explicit
// cells and reloads to the same cell list.
func FuzzLoadGrid(f *testing.F) {
	for _, v := range gridVectors {
		if v.cells < 1000 {
			f.Add([]byte(v.data))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var specs []CellSpec
		var err error
		allocated := allocatedBy(func() { specs, err = parseGrid("fuzz.json", data) })
		bound := 1<<20 + 64*uint64(len(data)) + MaxGridCells*uint64(unsafe.Sizeof(CellSpec{}))
		if allocated > bound {
			t.Fatalf("a %d-byte grid allocated %d bytes, bound %d", len(data), allocated, bound)
		}
		if err != nil {
			return
		}
		if len(specs) == 0 || len(specs) > MaxGridCells {
			t.Fatalf("accepted a grid of %d cells", len(specs))
		}
		again, err := json.Marshal(GridSpec{Cells: specs})
		if err != nil {
			t.Fatal(err)
		}
		reloaded, err := parseGrid("again.json", again)
		if err != nil {
			t.Fatalf("re-marshalled grid refused: %v", err)
		}
		if !reflect.DeepEqual(reloaded, specs) {
			t.Fatalf("re-marshalled grid reloads to %d different cells", len(reloaded))
		}
	})
}

// newBody returns a fresh value of a PFD1 message kind's body type, or nil
// for an unknown kind. Request and done carry an empty object.
func newBody(kind byte) any {
	switch kind {
	case MsgHello:
		return new(Hello)
	case MsgRequest, MsgDone:
		return new(struct{})
	case MsgGrant:
		return new(Grant)
	case MsgWait:
		return new(Wait)
	case MsgHeartbeat:
		return new(Heartbeat)
	case MsgResult:
		return new(ResultMsg)
	case MsgError:
		return new(ErrorMsg)
	}
	return nil
}

// msgVectors is one well-formed body of every PFD1 message kind.
var msgVectors = []struct {
	kind byte
	body any
}{
	{MsgHello, Hello{Worker: "w0", Cells: 12}},
	{MsgRequest, struct{}{}},
	{MsgGrant, Grant{Index: 3, Key: "3|cc-5|BO|1000|1", Attempt: 1, LeaseMillis: 5000}},
	{MsgWait, Wait{RetryMillis: 25}},
	{MsgDone, struct{}{}},
	{MsgHeartbeat, Heartbeat{Key: "3|cc-5|BO|1000|1"}},
	{MsgResult, ResultMsg{Index: 3, Key: "k", Result: runner.Result{
		Metrics:     runner.Metrics{Prefetcher: "BO", Trace: "cc-5", IPC: 0.8125, Accuracy: 0.5, Coverage: 1.0 / 3, Issued: 10, Useful: 5, BaselineMisses: 15},
		BaselineIPC: 0.7, Cycles: 123456, Wall: 42,
	}}},
	{MsgError, ErrorMsg{Index: 4, Key: "k", Error: "panic: boom <&>", Attempts: 2}},
}

// frameMsg encodes one message the way peers write it.
func frameMsg(t testing.TB, kind byte, body any) []byte {
	t.Helper()
	var buf bytes.Buffer
	mw := &msgWriter{w: &buf}
	if err := mw.write(context.Background(), kind, "test", body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rawFrame frames a payload with an arbitrary declared length.
func rawFrame(length uint32, payload string) []byte {
	return append(binary.BigEndian.AppendUint32(nil, length), payload...)
}

// frameOf frames a payload with its true length.
func frameOf(payload string) []byte { return rawFrame(uint32(len(payload)), payload) }

// badMsgStreams are malformed PFD1 streams every reader must refuse
// cleanly.
var badMsgStreams = map[string][]byte{
	"zero-length frame": rawFrame(0, ""),
	"truncated header":  {0, 0},
	"over the cap":      rawFrame(serve.MaxFrameBytes+1, "x"),
	"truncated body":    rawFrame(10, "\x01{}"),
	"unknown kind":      frameOf("\xee{}"),
	"bad JSON":          frameOf("\x01{x}"),
	"wrong field type":  frameOf("\x01{\"cells\":\"a\"}"),
	"missing body":      frameOf("\x03"),
}

// TestMsgVectors checks that every message kind survives the wire as
// itself, and that the malformed streams fail in framing or decoding.
func TestMsgVectors(t *testing.T) {
	for _, v := range msgVectors {
		kind, got, err := decodeMsg(serve.NewFrameReader(bytes.NewReader(frameMsg(t, v.kind, v.body))))
		if err != nil {
			t.Errorf("%s: %v", msgName(v.kind), err)
			continue
		}
		if kind != v.kind || !reflect.DeepEqual(reflect.ValueOf(got).Elem().Interface(), v.body) {
			t.Errorf("%s decodes to %s %+v", msgName(v.kind), msgName(kind), got)
		}
	}
	for name, stream := range badMsgStreams {
		if _, _, err := decodeMsg(serve.NewFrameReader(bytes.NewReader(stream))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// decodeMsg reads one message and decodes it into its kind's body type,
// as the coordinator and the worker do.
func decodeMsg(fr *serve.FrameReader) (byte, any, error) {
	kind, body, err := readMsg(fr)
	if err != nil {
		return 0, nil, err
	}
	v := newBody(kind)
	if v == nil {
		return kind, nil, fmt.Errorf("unknown kind %s", msgName(kind))
	}
	return kind, v, decode(kind, body, v)
}

// FuzzReadMsg fuzzes the PFD1 message path, FrameReader → readMsg →
// decode, over raw streams: it never panics, and every decoded message
// re-encodes and decodes to an equal value.
func FuzzReadMsg(f *testing.F) {
	var all []byte
	for _, v := range msgVectors {
		frame := frameMsg(f, v.kind, v.body)
		f.Add(frame)
		all = append(all, frame...)
	}
	f.Add(all)
	for _, stream := range badMsgStreams {
		f.Add(stream)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		fr := serve.NewFrameReader(bytes.NewReader(stream))
		for {
			kind, body, err := readMsg(fr)
			if err != nil {
				return // framing failed: the connection would drop
			}
			v := newBody(kind)
			if v == nil || decode(kind, body, v) != nil {
				continue
			}
			var buf bytes.Buffer
			mw := &msgWriter{w: &buf}
			if err := mw.write(context.Background(), kind, "fuzz", reflect.ValueOf(v).Elem().Interface()); err != nil {
				if len(mw.buf) > serve.MaxFrameBytes {
					continue // escaping grew the body past the frame cap
				}
				t.Fatalf("re-encoding a decoded %s: %v", msgName(kind), err)
			}
			kind2, v2, err := decodeMsg(serve.NewFrameReader(&buf))
			if err != nil {
				t.Fatalf("re-encoded %s does not decode: %v", msgName(kind), err)
			}
			if kind2 != kind || !reflect.DeepEqual(v2, v) {
				t.Fatalf("%s round trip: %+v became %+v", msgName(kind), v, v2)
			}
		}
	})
}
