package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one interval the harness spent inside a layer of the
// monitor, recorded around the harness's own call into that layer.
// Spans of one operation share OpID. Parent is the span whose
// operation caused this one, 0 for a root.
//
// Nothing inside the monitor is instrumented, so a child span is not
// nested in its parent in wall time: it is the same operation entered
// again one public boundary lower (a boundary replay) straight after
// the parent ended. A span's self time is still its duration minus its
// children's.
type span struct {
	ID     int    `json:"id"`
	OpID   int    `json:"op_id"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is the untraced run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// spanRef is an open span.
type spanRef struct {
	t  *tracer
	id int
}

// begin opens a span in a new operation, or in the parent's operation
// when parent is non-zero.
func (t *tracer) begin(layer, name string, parent int) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	op := 0
	if parent > 0 {
		op = t.spans[parent-1].OpID
	} else {
		t.ops++
		op = t.ops
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, OpID: op, Name: name, Layer: layer, Start: now, Parent: parent})
	return spanRef{t: t, id: id}
}

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.id-1].End = now
	s.t.mu.Unlock()
}

// commandSeconds totals, by span name, the root controller-layer spans
// that started inside one of the rounds: the time the workload's own
// commands took at the terminal during its measured phase.
func (t *tracer) commandSeconds(rounds []round) map[string]float64 {
	out := make(map[string]float64)
	if t == nil {
		return out
	}
	inRound := func(start int64) bool {
		for _, r := range rounds {
			if start >= r.from.Sub(t.t0).Nanoseconds() && start <= r.to.Sub(t.t0).Nanoseconds() {
				return true
			}
		}
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Layer == "controller" && s.Parent == 0 && inRound(s.Start) {
			out[s.Name] += float64(s.End-s.Start) / 1e9
		}
	}
	return out
}

// write appends the spans as JSON lines, one span a line, prefixed by
// nothing: the file is meant for jq and sort.
func (t *tracer) write(path, workload string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		line := struct {
			Workload string `json:"workload"`
			span
		}{workload, s}
		if err = enc.Encode(line); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
