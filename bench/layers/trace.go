package main

import (
	"fmt"
	"sort"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call (never inside the program under test). Start and End are
// nanoseconds since the tracer was created; Parent is the ID of the span
// that was open when this one began, 0 for a root. Count is the number of
// identical calls the span covers, recorded at the same boundary so that
// per-call figures are measured where the work happens.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Run      string `json:"run"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Count    int    `json:"count"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory; the caller writes them out at exit. It is
// for one goroutine.
type Tracer struct {
	workload, run string
	t0            time.Time
	spans         []Span
	open          []int // IDs of the spans in progress, innermost last
}

// NewTracer starts a trace; every span carries the workload name and the
// run identifier.
func NewTracer(workload, run string) *Tracer {
	return &Tracer{workload: workload, run: run, t0: time.Now()}
}

// Do records a span around f, which performs count identical calls into
// layer, and returns the span. Spans begun inside f become its children.
func (t *Tracer) Do(layer, name string, count int, f func()) Span {
	id := len(t.spans) + 1
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Layer: layer,
		Workload: t.workload, Run: t.run, Count: count})
	t.open = append(t.open, id)
	start := time.Since(t.t0)
	f()
	end := time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id-1]
	s.Start, s.End = int64(start), int64(end)
	return *s
}

// Spans returns the recorded spans in start order.
func (t *Tracer) Spans() []Span { return t.spans }

// Validate checks that spans form a well-formed forest: unique positive
// IDs, End >= Start, every parent present and begun earlier, every child
// inside its parent's interval and of the same run.
func Validate(spans []Span) error {
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		if s.ID <= 0 {
			return fmt.Errorf("span %q has non-positive id %d", s.Name, s.ID)
		}
		if _, dup := byID[s.ID]; dup {
			return fmt.Errorf("duplicate span id %d", s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d %q ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d %q names missing parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Parent == s.ID {
			return fmt.Errorf("span %d %q is its own parent", s.ID, s.Name)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %q is not inside its parent %d %q", s.ID, s.Name, p.ID, p.Name)
		}
		if s.Run != p.Run {
			return fmt.Errorf("span %d %q and its parent belong to different runs", s.ID, s.Name)
		}
	}
	return nil
}

// SelfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once).
func SelfTimes(spans []Span) map[int]time.Duration {
	kids := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered, upto := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, upto), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[s.ID] = s.Dur() - time.Duration(covered)
	}
	return self
}
