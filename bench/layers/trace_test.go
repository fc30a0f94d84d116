package main

import (
	"strings"
	"testing"
	"time"
)

func TestTracerNestsSpans(t *testing.T) {
	tr := NewTracer("w", "w-seed1")
	tr.Do("bench", "root", 1, func() {
		tr.Do("netlist", "parse", 1, func() {})
		tr.Do("sparse", "solves", 50, func() {
			tr.Do("sparse", "inner", 1, func() {})
		})
	})
	tr.Do("bench", "second root", 1, func() {})
	spans := tr.Spans()
	if err := Validate(spans); err != nil {
		t.Fatal(err)
	}
	wantParent := []int{0, 1, 1, 3, 0}
	if len(spans) != len(wantParent) {
		t.Fatalf("%d spans, want %d", len(spans), len(wantParent))
	}
	for i, s := range spans {
		if s.ID != i+1 || s.Parent != wantParent[i] {
			t.Errorf("span %q: id %d parent %d, want id %d parent %d", s.Name, s.ID, s.Parent, i+1, wantParent[i])
		}
		if s.Workload != "w" || s.Run != "w-seed1" {
			t.Errorf("span %q carries workload %q run %q", s.Name, s.Workload, s.Run)
		}
	}
	if spans[2].Count != 50 {
		t.Errorf("count = %d, want 50", spans[2].Count)
	}
}

func TestValidateRejectsBrokenTrees(t *testing.T) {
	ok := []Span{
		{ID: 1, Start: 0, End: 100, Run: "r"},
		{ID: 2, Parent: 1, Start: 10, End: 60, Run: "r"},
	}
	if err := Validate(ok); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	mutate := func(f func(s []Span)) []Span {
		s := append([]Span(nil), ok...)
		f(s)
		return s
	}
	cases := map[string][]Span{
		"non-positive id":         mutate(func(s []Span) { s[0].ID = 0; s[1].Parent = 0 }),
		"duplicate span id":       mutate(func(s []Span) { s[1].ID = 1; s[1].Parent = 0 }),
		"ends before it starts":   mutate(func(s []Span) { s[1].End = 5 }),
		"missing parent":          mutate(func(s []Span) { s[1].Parent = 7 }),
		"its own parent":          mutate(func(s []Span) { s[1].Parent = 2 }),
		"not inside its parent":   mutate(func(s []Span) { s[1].End = 101 }),
		"belong to different run": mutate(func(s []Span) { s[1].Run = "other" }),
	}
	for want, spans := range cases {
		err := Validate(spans)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v", want, err)
		}
	}
}

// Self time is the span minus what its direct children cover: grandchildren
// are already inside a child, overlapping children count once, and a
// child is clipped to its parent.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Start: 0, End: 1000},
		{ID: 2, Parent: 1, Start: 100, End: 400},
		{ID: 3, Parent: 2, Start: 150, End: 250}, // grandchild of 1
		{ID: 4, Parent: 1, Start: 300, End: 600}, // overlaps 2 by 100
		{ID: 5, Parent: 1, Start: 900, End: 1000},
		{ID: 6, Start: 2000, End: 2500}, // childless root
	}
	want := map[int]time.Duration{
		1: 1000 - (300 + 200 + 100),
		2: 300 - 100,
		3: 100,
		4: 300,
		5: 100,
		6: 500,
	}
	got := SelfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}
