package main

import (
	"sync"
	"time"
)

// span is one timed call into the fleet, as the harness saw it from
// outside: which public call, for which window or query, inside which
// enclosing span.
type span struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	ID      int     `json:"id"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is what the measured run uses.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func noop() {}

// start opens a span and returns the function that closes it.
func (t *tracer) start(name, parent string, id int) func() {
	if t == nil {
		return noop
	}
	s := time.Since(t.t0)
	return func() {
		e := time.Since(t.t0)
		t.mu.Lock()
		t.spans = append(t.spans, span{Name: name, Parent: parent, ID: id, StartUS: us(s), EndUS: us(e)})
		t.mu.Unlock()
	}
}

// selfTimes folds the spans into busy time per span name in ms: a span's
// self time is its duration minus what its child spans cover. Children here
// never overlap one another (one goroutine opens them in sequence), so
// covering is a sum.
func (t *tracer) selfTimes() map[string]float64 {
	type key struct {
		name string
		id   int
	}
	children := make(map[key]float64)
	for _, s := range t.spans {
		if s.Parent != "" {
			children[key{s.Parent, s.ID}] += s.EndUS - s.StartUS
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		self[s.Name] += (s.EndUS - s.StartUS - children[key{s.Name, s.ID}]) / 1e3
	}
	return self
}
