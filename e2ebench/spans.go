package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed interval of the traced run, recorded by the benchmark
// around a call into a layer's public functions. Start and End are
// nanoseconds since the tracer started.
type span struct {
	name       string // "<layer>.<stage>"
	start, end int64
	parent     int32 // index of the enclosing span, -1 for a root
	id         int64 // cell index or event id
	// nested is time spent inside this span in calls timed one by one
	// (PATHFINDER's Advise) that are not recorded as spans of their own;
	// it counts toward nestedLayer's self time, not this span's.
	nested      int64
	nestedLayer string
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced paths share code with the traced
// ones. It is used from one goroutine at a time.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int32, id int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: t.now(), parent: parent, id: id})
	return int32(len(t.spans) - 1)
}

// end closes span i and returns its duration.
func (t *tracer) end(i int32) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	s := &t.spans[i]
	s.end = t.now()
	return time.Duration(s.end - s.start)
}

// addNested charges d of span i's time to layer.
func (t *tracer) addNested(i int32, layer string, d time.Duration) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].nested += int64(d)
	t.spans[i].nestedLayer = layer
}

// add records an already-measured interval.
func (t *tracer) add(s span) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time: its spans' durations minus
// the part their child spans and nested calls cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		self[layerOf(s.name)] += time.Duration(s.end - s.start - child[i] - s.nested)
		if s.nested != 0 {
			self[s.nestedLayer] += time.Duration(s.nested)
		}
	}
	return self
}

// total sums the durations of the spans with the given name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return time.Duration(d)
}

// write stores the spans as CSV under dir; an empty dir writes nothing.
func (t *tracer) write(dir, file string) (string, error) {
	if t == nil || dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start_ns,end_ns,parent,id,nested_ns,nested_layer")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%s\n", s.name, s.start, s.end, s.parent, s.id, s.nested, s.nestedLayer)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
