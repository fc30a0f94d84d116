package transient

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestInputsAheadDiscarded: the helper computes the next segment's input
// terms on the assumption that this segment is not split and that the next
// ramp keeps the deviation treatment. A ramp whose own cost moves the choice
// back to augmented after the launch, and a segment split because MaxDim
// caps the subspace, each throw the helper's terms away; the loop computes
// them again inline and the waveform stays within the oracle tests' ten
// budgets of the dense reference.
func TestInputsAheadDiscarded(t *testing.T) {
	for _, tc := range []struct {
		name   string
		seed   int64
		stiff  bool
		method Method
		maxDim int
		split  bool
	}{
		{"treatment-flip", 1, false, RMATEX, 0, false},
		{"split", 8, true, IMATEX, 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := newOracleCase(tc.seed, oracleSymRC, tc.stiff)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := c.reference()
			if err != nil {
				t.Fatal(err)
			}
			probes := make([]int, c.sys.N)
			for i := range probes {
				probes[i] = i
			}
			res, err := Simulate(c.sys, tc.method, Options{Tstop: oracleTstop, Tol: oracleTol, EvalTimes: c.evals, Probes: probes, MaxDim: tc.maxDim})
			if err != nil {
				t.Fatal(err)
			}
			st := &res.Stats
			if st.InputDiscarded == 0 || (st.Rejected > 0) != tc.split {
				t.Errorf("%d input pairs discarded, %d segments split: not the miss this case is for", st.InputDiscarded, st.Rejected)
			}
			if st.InputAhead == 0 || st.InputAhead > st.InputPairs {
				t.Errorf("%d input pairs taken from the helper of %d", st.InputAhead, st.InputPairs)
			}
			if dev, err := c.maxDeviation(res, ref); err != nil || dev > 10*oracleTol {
				t.Errorf("max deviation from the dense reference %g (%v), want <= %g", dev, err, 10*oracleTol)
			}
		})
	}
}

// TestInputsAheadOnADynamicDeck: on ibmpg1t at 0.5 pF — grid_dynamic's
// shape, where the ramps move to the deviation and stay there — the loop
// takes the helper's input terms and the helper computes none in vain.
func TestInputsAheadOnADynamicDeck(t *testing.T) {
	sys := pdnSystemCNode(t, 1, 0.5e-12)
	res, err := Simulate(sys, RMATEX, Options{Tstop: 10e-9})
	if err != nil {
		t.Fatal(err)
	}
	if st := &res.Stats; st.InputAhead == 0 || st.InputDiscarded != 0 {
		t.Errorf("%d input pairs taken from the helper (of %d), %d discarded; want some and none", st.InputAhead, st.InputPairs, st.InputDiscarded)
	}
}

// TestInputsAheadJoinedOnEveryReturn: a run canceled mid-way and a run that
// fails even after a split both return with the helper joined — the number
// of goroutines settles back where it started. I-MATEX launches the helper
// at every segment, so one is in flight at either return.
func TestInputsAheadJoinedOnEveryReturn(t *testing.T) {
	settled := func(t *testing.T, before int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
	t.Run("canceled", func(t *testing.T) {
		sys := pdnSystem(t, 0.2)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		samples := 0
		opts := Options{Tstop: 10e-9, Ctx: ctx, OnSample: func(float64, []float64) {
			if samples++; samples == 5 {
				cancel()
			}
		}}
		before := runtime.NumGoroutine()
		if _, err := Simulate(sys, IMATEX, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want a canceled run", err)
		}
		settled(t, before)
	})
	t.Run("even-after-split", func(t *testing.T) {
		c, err := newOracleCase(1, oracleSymRC, true)
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		_, err = Simulate(c.sys, IMATEX, Options{Tstop: oracleTstop, Tol: oracleTol, EvalTimes: c.evals, MaxDim: 2})
		if err == nil || !strings.Contains(err.Error(), "even after split") {
			t.Fatalf("got %v, want a failure even after split", err)
		}
		settled(t, before)
	})
}
