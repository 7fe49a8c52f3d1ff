package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the ID of the
// span that caused it (−1 for a root); spans of one operation share Op.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op_id"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the decorators call it unconditionally and the untraced run
// pays one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// scope is a live span; child scopes nest under it. A nil *scope is the
// untraced case and every method on it is a no-op.
type scope struct {
	tr *tracer
	id int
	op int
}

// root opens a top-level span for operation op.
func (t *tracer) root(name string, op int) *scope {
	if t == nil {
		return nil
	}
	return t.open(name, -1, op)
}

func (t *tracer) open(name string, parent, op int) *scope {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, StartNs: now, EndNs: -1, Parent: parent, Op: op})
	t.mu.Unlock()
	return &scope{tr: t, id: id, op: op}
}

func (s *scope) child(name string) *scope {
	if s == nil {
		return nil
	}
	return s.tr.open(name, s.id, s.op)
}

func (s *scope) end() {
	if s == nil {
		return
	}
	now := time.Since(s.tr.t0).Nanoseconds()
	s.tr.mu.Lock()
	s.tr.spans[s.id].EndNs = now
	s.tr.mu.Unlock()
}

// finished returns the closed spans recorded so far.
func (t *tracer) finished() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.EndNs >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its direct children cover (overlapping children are merged
// first, so concurrent children are not subtracted twice).
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, hi int64
		hi = s.StartNs
		for _, c := range iv {
			lo, end := max(c[0], hi), min(c[1], s.EndNs)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.ID] = (s.EndNs - s.StartNs) - covered
	}
	return self
}

// durationsMs collects the durations of every span called name, in ms.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// perOpMs sums, per operation, the durations of the spans called name and
// returns one total per operation that has any, in ms.
func perOpMs(spans []span, name string) []float64 {
	sums := make(map[int]float64)
	for _, s := range spans {
		if s.Name == name {
			sums[s.Op] += float64(s.EndNs-s.StartNs) / 1e6
		}
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	return out
}

// writeJSONL writes one span per line, with its self time.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := selfTimes(spans)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			span
			SelfNs int64 `json:"self_ns"`
		}{s, self[s.ID]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
