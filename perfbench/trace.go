package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// maxKeptSpans bounds the spans kept for the dump; aggregates keep
// counting past it.
const maxKeptSpans = 200_000

// span is one timed call the benchmark made into a layer's public
// function. Spans under a request (Parent >= 0) are replays: the
// benchmark repeats the layer call right after the request, on the
// same snapshot and inputs, because the server's own spans are not
// used. Self time of a span is its duration minus its children's.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// agg sums one span name's durations and counts.
type agg struct {
	n   int64
	sum time.Duration
}

// tracer keeps spans in memory and writes them out when the run ends.
// A nil *tracer is the untraced run: every method is a no-op.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	dropped int64
	aggs    map[string]*agg
	vals    map[string][]float64 // per-name extra samples (counts, ratios)
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), aggs: map[string]*agg{}, vals: map[string][]float64{}}
}

// record stores one span and returns its index (the parent handle of
// later child spans); -1 when untraced or beyond the keep limit.
func (t *tracer) record(name string, start time.Time, d time.Duration, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.aggs[name]
	if a == nil {
		a = &agg{}
		t.aggs[name] = a
	}
	a.n++
	a.sum += d
	if len(t.spans) >= maxKeptSpans {
		t.dropped++
		return -1
	}
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + int64(d), Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

// time runs fn and records it as a span.
func (t *tracer) time(name string, parent int32, req int64, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	t.record(name, start, d, parent, req)
	return d
}

// note records a non-time sample under name (a count or ratio).
func (t *tracer) note(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.vals[name] = append(t.vals[name], v)
	t.mu.Unlock()
}

// total returns the summed duration and count of spans named name.
func (t *tracer) total(name string) (time.Duration, int64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.aggs[name]; a != nil {
		return a.sum, a.n
	}
	return 0, 0
}

// meanOf returns the mean duration of spans named name in unit u.
func (t *tracer) meanOf(name string, u time.Duration) float64 {
	sum, n := t.total(name)
	return ratio(float64(sum)/float64(u), float64(n))
}

// samples returns a copy of the non-time samples recorded under name.
func (t *tracer) samples(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.vals[name]...)
}

// count is the number of spans recorded (kept or not).
func (t *tracer) count() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(len(t.spans)) + t.dropped
}

// dump writes the kept spans as JSON lines to path.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	dropped := t.dropped
	t.mu.Unlock()
	if dropped > 0 {
		fmt.Fprintf(bw, "{\"dropped\":%d}\n", dropped)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
