package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed layer call recorded by the benchmark around a call into
// the program (or, for daemon jobs, reconstructed from a job's service
// timestamps and RunReport phase times). Start and end are nanoseconds since
// the tracer's epoch; Parent is 0 for a job's root span.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Job    int                `json:"job"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	SelfNS int64              `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: the daemon workload records spans from one goroutine per
// in-flight job.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// add records a finished span and returns its id.
func (t *tracer) add(job, parent int, name string, start, end time.Time, attrs map[string]float64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name,
		Start: t.at(start), End: t.at(end), Attrs: attrs})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(job, parent int, name string, start time.Time) int {
	return t.add(job, parent, name, start, start, nil)
}

func (t *tracer) close(id int, end time.Time, attrs map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.at(end)
	t.spans[id-1].Attrs = attrs
}

// finish computes every span's self time: its duration minus the part of
// its interval that its children cover.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfNS = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return t.spans
}

// covered is the length of the union of the children's intervals, clipped
// to [start, end].
func covered(start, end int64, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
