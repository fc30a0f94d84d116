package faultinject

import (
	"errors"
	"sync"
	"testing"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	for _, p := range Points {
		if err := r.Check(p); err != nil {
			t.Fatalf("nil registry fired %s: %v", p, err)
		}
		if r.Fired(p) != 0 || r.Checks(p) != 0 {
			t.Fatalf("nil registry has counters for %s", p)
		}
	}
}

func TestUnarmedPointNeverFires(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if err := r.Check(CheckpointWrite); err != nil {
			t.Fatalf("unarmed point fired: %v", err)
		}
	}
	if r.Checks(CheckpointWrite) != 0 {
		t.Fatalf("unarmed point counted checks: %d", r.Checks(CheckpointWrite))
	}
}

func TestAfterTimesWindow(t *testing.T) {
	r := New(1)
	r.Arm(JournalAppend, Plan{After: 2, Times: 3})
	var fired []int
	for i := 1; i <= 10; i++ {
		if r.Check(JournalAppend) != nil {
			fired = append(fired, i)
		}
	}
	want := []int{3, 4, 5}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
	}
	if got := r.Fired(JournalAppend); got != 3 {
		t.Fatalf("Fired = %d, want 3", got)
	}
	if got := r.Checks(JournalAppend); got != 10 {
		t.Fatalf("Checks = %d, want 10", got)
	}
}

func TestTypedError(t *testing.T) {
	r := New(1)
	r.Arm(JournalAppend, Plan{Times: 1})
	err := r.Check(JournalAppend)
	if err == nil {
		t.Fatal("expected injected error")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("errors.Is(ErrInjected) = false for %v", err)
	}
	if !IsInjected(err) {
		t.Fatalf("IsInjected = false for %v", err)
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Point != JournalAppend || fe.Hit != 1 {
		t.Fatalf("unexpected typed error: %+v", fe)
	}
	if IsInjected(errors.New("plain")) {
		t.Fatal("IsInjected matched a plain error")
	}
}

func TestProbDeterministicForSeed(t *testing.T) {
	run := func(seed int64) []bool {
		r := New(seed)
		r.Arm(CheckpointWrite, Plan{Prob: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = r.Check(CheckpointWrite) != nil
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at check %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical firing sequence (suspicious)")
	}
	any, all := false, true
	for _, f := range a {
		any = any || f
		all = all && f
	}
	if !any || all {
		t.Fatalf("Prob=0.5 over 64 checks fired degenerate pattern any=%v all=%v", any, all)
	}
}

func TestDisarmAndRearmResetsCounters(t *testing.T) {
	r := New(1)
	r.Arm(CheckpointWrite, Plan{Times: 2})
	r.Check(CheckpointWrite)
	r.Disarm(CheckpointWrite)
	if err := r.Check(CheckpointWrite); err != nil {
		t.Fatalf("disarmed point fired: %v", err)
	}
	if r.Fired(CheckpointWrite) != 0 {
		t.Fatal("Fired survives Disarm")
	}
	r.Arm(CheckpointWrite, Plan{After: 1, Times: 1})
	if err := r.Check(CheckpointWrite); err != nil {
		t.Fatal("re-armed counters not reset: fired on first check despite After=1")
	}
	if err := r.Check(CheckpointWrite); err == nil {
		t.Fatal("re-armed point never fired")
	}
}

func TestConcurrentChecksRace(t *testing.T) {
	r := New(7)
	r.Arm(CheckpointWrite, Plan{Prob: 0.3})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Check(CheckpointWrite)
				r.Fired(CheckpointWrite)
			}
		}()
	}
	wg.Wait()
	if got := r.Checks(CheckpointWrite); got != 8*200 {
		t.Fatalf("Checks = %d, want %d", got, 8*200)
	}
}
