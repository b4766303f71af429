package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// A span is one timed call the harness made into a layer. Spans of one
// operation share Op; Parent is the span whose work this one accounts for
// (0 for the operation's root). The engine has no hooks inside it yet, so a
// child span is a paired replay: the same call with the same arguments, made
// right after its parent returned. A layer's self time is therefore its
// duration minus its children's durations, not an interval subtraction.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	Class   string `json:"class"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp hands out the identifier the spans of one operation share.
func (t *tracer) newOp() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// record stores one finished span and returns its id.
func (t *tracer) record(name, class string, parent, op int64, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name, Class: class,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// selfTimes returns, per span name, each span's duration minus its
// children's durations, in microseconds, for the spans of one class.
func (t *tracer) selfTimes(class string) map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		if s.Class != class {
			continue
		}
		self := s.EndNs - s.StartNs - children[s.ID]
		out[s.Name] = append(out[s.Name], float64(self)/1e3)
	}
	return out
}

// durations returns, per span name, the durations in microseconds of the
// spans of one class.
func (t *tracer) durations(class string) map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string][]float64{}
	for _, s := range t.spans {
		if s.Class == class {
			out[s.Name] = append(out[s.Name], float64(s.EndNs-s.StartNs)/1e3)
		}
	}
	return out
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
