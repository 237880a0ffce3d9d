package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans nest through Parent (-1 for a root), so a layer's self time is its
// span's duration minus the durations of its children.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory until the run writes
// them out. A nil tracer records nothing, so untraced runs pass nil.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// reserve makes room for n more spans, so recording them does not
// allocate.
func (t *tracer) reserve(n int) {
	t.spans = slices.Grow(t.spans, n)
}

// start opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// record adds a span whose bounds were timed by the caller.
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// durations returns the durations of every span called name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// layerTime is one span name's total and self time over a trace.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes sums, per span name, the durations and self times of the
// spans whose root span passes include. A span's self time is its duration
// minus the durations of its direct children.
func (t *tracer) selfTimes(include func(root span) bool) []layerTime {
	// A span's parent always opens before it, so roots resolve in order.
	root := make([]int, len(t.spans))
	child := make([]int64, len(t.spans))
	for i, s := range t.spans {
		root[i] = i
		if s.Parent >= 0 {
			root[i] = root[s.Parent]
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*layerTime{}
	for i, s := range t.spans {
		if !include(t.spans[root[i]]) {
			continue
		}
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.Count++
		lt.Total += time.Duration(s.End - s.Start)
		lt.Self += time.Duration(s.End - s.Start - child[i])
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write stores the spans as gzip-compressed JSON in dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw := gzip.NewWriter(f)
	doc := struct {
		Unit  string `json:"unit"`
		Spans []span `json:"spans"`
	}{"ns since the first span", t.spans}
	if err := json.NewEncoder(zw).Encode(doc); err != nil {
		f.Close()
		return "", fmt.Errorf("encode spans: %w", err)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return "", fmt.Errorf("compress spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}
