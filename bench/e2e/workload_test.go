package main

import (
	"context"
	"errors"
	"testing"
	"time"
)

// The timed phase is cut into slices of sliceOps completed operations,
// ends on a slice boundary however many clients there are, and does not
// measure a slice that had a failure in it.
func TestMeasureSlices(t *testing.T) {
	in := &instance{clients: 2, sliceOps: 4, op: func(_ context.Context, i int) (sample, error) {
		if i == 5 {
			return sample{}, errors.New("injected")
		}
		return sample{class: i % 2, wall: time.Duration(i+1) * time.Microsecond}, nil
	}}
	got, err := measure(context.Background(), in, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got.passed != 11 || got.failed != 1 || len(got.errs) != 1 {
		t.Fatalf("%d passed, %d failed, %d errors kept; want 11, 1, 1", got.passed, got.failed, len(got.errs))
	}
	// 12 operations: the fewest that are at least 10 and fill whole slices.
	// The second slice holds the failure.
	if len(got.slices) != 2 {
		t.Fatalf("%d slices measured, want 2", len(got.slices))
	}
	var sum time.Duration
	for _, sl := range got.slices {
		if len(sl.samples) != in.sliceOps || sl.elapsed <= 0 {
			t.Errorf("slice of %d samples over %v", len(sl.samples), sl.elapsed)
		}
		sum += sl.elapsed
	}
	if sum > got.elapsed {
		t.Errorf("slices cover %v of a phase of %v", sum, got.elapsed)
	}

	var all timed
	all.add(got)
	all.add(got)
	if all.passed != 22 || all.failed != 2 || len(all.slices) != 4 || all.elapsed != 2*got.elapsed {
		t.Errorf("two parts added up to %+v", all)
	}
}
