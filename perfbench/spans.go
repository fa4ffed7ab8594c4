package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the boundary: the program under test carries no tracing of its own here.
type span struct {
	ID     int64
	Parent int64 // 0: root
	Req    int64 // request (or collective call) the span belongs to
	Name   string
	Start  time.Time
	End    time.Time
}

// tracer keeps spans in memory and writes them once, as Chrome trace JSON,
// when the run ends. A nil *tracer records nothing, so untraced runs pay one
// nil check per boundary.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	next   int64
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, req int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return t.next
}

// reserve allocates an id for a span whose children finish before it does;
// close records it under that id.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) close(id int64, name string, parent, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent, req int64, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, parent, req, start, end)
	return end.Sub(start)
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write renders the spans as Chrome trace-event JSON ("X" complete events,
// microsecond timestamps relative to the tracer's creation).
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Req % 64,
			Ts:   us(s.Start.Sub(t.origin)),
			Dur:  us(s.End.Sub(s.Start)),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
