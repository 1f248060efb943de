package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark around
// a public entry point. Spans of one block or request share its key;
// Parent is the enclosing span's id, or -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Key    string `json:"key"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced paths pay only a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name, key string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Key: key, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// timed runs fn inside a span.
func (t *tracer) timed(name, key string, parent int, fn func()) {
	id := t.begin(name, key, parent)
	fn()
	t.end(id)
}

// layerTime is a span name's total duration, its total self time, and
// the number of distinct keys (blocks, kernels or requests) that called
// it.
type layerTime struct {
	Total, Self time.Duration
	Keys        int
}

// perKeyMS is the mean self time per calling key, in milliseconds.
func (l layerTime) perKeyMS() float64 {
	if l.Keys == 0 {
		return 0
	}
	return l.Self.Seconds() * 1000 / float64(l.Keys)
}

// selfTimes derives each span name's self time: a span's duration minus
// the part of its interval that its children cover.
func selfTimes(spans []span) map[string]layerTime {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]layerTime{}
	keys := map[string]map[string]bool{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		l := out[s.Name]
		l.Total += time.Duration(s.End - s.Start)
		l.Self += time.Duration(s.End - s.Start - covered(children[s.ID], s.Start, s.End))
		if keys[s.Name] == nil {
			keys[s.Name] = map[string]bool{}
		}
		keys[s.Name][s.Key] = true
		l.Keys = len(keys[s.Name])
		out[s.Name] = l
	}
	return out
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var n, curLo, curHi int64
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			n += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		n += curHi - curLo
	}
	return n
}

// write saves the spans, their derived self times and the host stamp as
// one JSON document.
func (t *tracer) write(path string, h host) error {
	type selfJSON struct {
		SelfMS float64 `json:"self_ms"`
		Keys   int     `json:"keys"`
	}
	self := map[string]selfJSON{}
	for name, l := range selfTimes(t.spans) {
		self[name] = selfJSON{l.Self.Seconds() * 1000, l.Keys}
	}
	data, err := json.Marshal(struct {
		Host  host                `json:"host"`
		Self  map[string]selfJSON `json:"self"`
		Spans []span              `json:"spans"`
	}{h, self, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
