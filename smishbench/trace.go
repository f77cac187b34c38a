package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent is the span that caused
// it (0 for roots, and for batchmux flushes, which run under a detached
// context and are linked to their callers by key afterwards).
type span struct {
	ID     int64    `json:"id"`
	Parent int64    `json:"parent,omitempty"`
	Name   string   `json:"name"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
	Round  int      `json:"round,omitempty"`
	Keys   []string `json:"keys,omitempty"`
	Err    bool     `json:"err,omitempty"`
	N      int      `json:"n,omitempty"` // items the call handled (reports, records)
}

func (s span) interval() interval { return interval{s.Start, s.End} }
func (s span) dur() int64         { return s.End - s.Start }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

type spanKey struct{}

// open is a started span; close it with end.
type open struct {
	t *tracer
	s span
}

// begin starts a span named name whose parent is the span carried by
// ctx, and returns a context that carries the new span.
func (t *tracer) begin(ctx context.Context, name string, round int, keys ...string) (context.Context, *open) {
	id := t.next.Add(1)
	parent, _ := ctx.Value(spanKey{}).(int64)
	o := &open{t: t, s: span{ID: id, Parent: parent, Name: name, Round: round, Keys: keys, Start: int64(time.Since(t.epoch))}}
	return context.WithValue(ctx, spanKey{}, id), o
}

func (o *open) end(err error) {
	o.s.End = int64(time.Since(o.t.epoch))
	o.s.Err = err != nil
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// endN closes the span recording how many items the call handled.
func (o *open) endN(n int, err error) {
	o.s.N = n
	o.end(err)
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// spanIndex groups a trace for the per-layer arithmetic.
type spanIndex struct {
	spans    []span
	byName   map[string][]int // span name -> indexes
	children map[int64][]int  // parent id -> indexes
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, byName: map[string][]int{}, children: map[int64][]int{}}
	for i, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], i)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], i)
		}
	}
	return ix
}

// named returns every span whose name has the given prefix.
func (ix *spanIndex) named(prefix string) []span {
	var out []span
	for name, idxs := range ix.byName {
		if strings.HasPrefix(name, prefix) {
			for _, i := range idxs {
				out = append(out, ix.spans[i])
			}
		}
	}
	return out
}

// childIntervals returns the intervals of a span's ctx-linked children.
func (ix *spanIndex) childIntervals(id int64) []interval {
	idxs := ix.children[id]
	out := make([]interval, len(idxs))
	for j, i := range idxs {
		out[j] = ix.spans[i].interval()
	}
	return out
}

// totalMS sums span durations in milliseconds.
func totalMS(spans []span) float64 {
	var ns int64
	for _, s := range spans {
		ns += s.dur()
	}
	return float64(ns) / 1e6
}

func spanDurationsMS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / 1e6
	}
	return out
}

// selfMSPer1k is the mean self time per 1000 spans, in milliseconds,
// with each span's children found by extra as well as by ctx linkage.
func (ix *spanIndex) selfMSPer1k(spans []span, extra func(span) []interval) float64 {
	if len(spans) == 0 {
		return 0
	}
	var ns int64
	for _, s := range spans {
		kids := ix.childIntervals(s.ID)
		if extra != nil {
			kids = append(kids, extra(s)...)
		}
		ns += selfTime(s.interval(), kids)
	}
	return float64(ns) / 1e6 / float64(len(spans)) * 1000
}
