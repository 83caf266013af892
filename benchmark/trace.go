package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer. The spans of one epoch share its
// (Source, Seq); SP-side spans that cover several epochs (a snapshot
// round) carry source 0 and the round's progress as Seq.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Source uint32 `json:"source"`
	Seq    uint64 `json:"seq"`
}

// tracer keeps the traced run's spans in memory. A nil tracer records
// nothing, so call sites need no branch and the untraced run pays
// nothing.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) add(name string, start, end time.Time, parent int, source uint32, seq uint64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
		Parent: parent, Source: source, Seq: seq,
	})
	return len(t.spans) - 1
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// reserve allocates a span's index before its interval is known, so the
// spans it causes can name it as parent while it is still open; fill
// completes it.
func (t *tracer) reserve() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Parent: -1})
	return len(t.spans) - 1
}

func (t *tracer) fill(i int, name string, start, end time.Time, parent int, source uint32, seq uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i] = span{
		Name: name, Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
		Parent: parent, Source: source, Seq: seq,
	}
}

// selfNanos returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children count
// once).
func selfNanos(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		slices.SortFunc(kids, func(a, b int) int { return int(spans[a].Start - spans[b].Start) })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTimes is one span name's durations and self times, milliseconds.
type layerTimes struct{ total, self []float64 }

// layers groups the spans that start inside [from, to) by name.
func (t *tracer) layers(from, to time.Time) map[string]layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfNanos(t.spans)
	lo, hi := int64(from.Sub(t.origin)), int64(to.Sub(t.origin))
	out := map[string]layerTimes{}
	for i, s := range t.spans {
		if s.Start < lo || s.Start >= hi {
			continue
		}
		l := out[s.Name]
		l.total = append(l.total, float64(s.End-s.Start)/1e6)
		l.self = append(l.self, float64(self[i])/1e6)
		out[s.Name] = l
	}
	return out
}

// writeTo dumps the spans as JSON lines, one span per line in recording
// order; a span's parent is the zero-based line number of its cause.
func (t *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
