package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. All spans are created in the bench, held
// in memory, and written out when the workload ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Batch  int    `json:"batch"` // spans of one batch share it
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Ops and BusyNs are set on shadow stage spans only: the stage ran
	// Ops calls taking BusyNs in total, interleaved with the other
	// stages inside the parent batch's interval.
	Ops    int64 `json:"ops,omitempty"`
	BusyNs int64 `json:"busy_ns,omitempty"`
}

// tracer collects spans. A nil tracer records nothing, so the untraced
// pass runs the same code with tracing off.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, batch int) int {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Batch: batch, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a finished span (used for the shadow's aggregated stages)
// and returns its id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// total sums the durations of the spans called name.
func (t *tracer) total(name string) (ns int64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
			n++
		}
	}
	return ns, n
}

// selfTime is the summed self time of the spans called name.
func (t *tracer) selfTime(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return selfTimes(t.spans)[name]
}

// selfTimes returns, per span name, the summed self time: a span's
// duration minus the part of its interval that its child spans cover
// (overlapping children are counted once). An aggregated shadow stage
// covers its busy time, not its nominal interval.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, at := int64(0), s.Start
		for _, k := range kids {
			if k.BusyNs > 0 {
				covered += k.BusyNs
				continue
			}
			lo, hi := max(k.Start, at), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		out[s.Name] += s.End - s.Start - covered
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
