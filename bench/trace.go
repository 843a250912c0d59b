package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the
// call. Spans of one operation share Op; Parent is the ID of the span
// that caused this one (0 for none). Count is the work the call did,
// counted at the same boundary: retired instructions, bytes or profiles.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int64  `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per boundary. Safe for
// concurrent use.
type tracer struct {
	t0  time.Time
	ops atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh operation ID.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.ops.Add(1)
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes span id, recording the work it did.
func (t *tracer) end(id int, count int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Count = now, count
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves the spans and the run's result as one JSON document.
func (t *tracer) write(path string, res *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Result *result `json:"result"`
		Spans  []span  `json:"spans"`
	}{res, t.snapshot()})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Overlapping children (work
// done in parallel) cover each instant once.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			kids[p] = append(kids[p], i)
		}
	}
	out := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		var iv [][2]int64
		for _, k := range kids[s.ID] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if a < b {
				iv = append(iv, [2]int64{a, b})
			}
		}
		out[i] = s.dur() - unionLen(iv)
	}
	return out
}

// unionLen returns the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for k, v := range iv {
		a, b := v[0], v[1]
		if k > 0 && a < end {
			a = end
		}
		if b > a {
			total += b - a
		}
		end = max(end, b)
	}
	return total
}

// coverage returns, over every span named name, the share of their
// total duration that their children cover, in percent.
func coverage(spans []span, self []int64, name string) float64 {
	var dur, covered int64
	for i := range spans {
		if spans[i].Name == name {
			dur += spans[i].dur()
			covered += spans[i].dur() - self[i]
		}
	}
	if dur == 0 {
		return 0
	}
	return 100 * float64(covered) / float64(dur)
}
