package transient

import (
	"math"
	"testing"

	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/waveform"
)

// TestFixedStepLandsExactlyOnTstop is the regression test for the endpoint
// bug: with Tstop = 10ns and Step = 3ns the old code rounded to 3 steps and
// stopped at 9ns, so Result.Final was the state 1ns short of the window —
// corrupting the distributed superposition of fixed-step subtasks. The
// fixed integrator takes a shortened final step landing exactly on Tstop.
func TestFixedStepLandsExactlyOnTstop(t *testing.T) {
	r, c, amp := 1000.0, 1e-12, 1e-3 // tau = 1 ns
	sys, idx := rcStep(t, r, c, amp)
	tstop, h := 10e-9, 3e-9
	zero := make([]float64, sys.N)
	for _, m := range []Method{TRFixed, BEFixed, FEFixed} {
		res, err := Simulate(sys, m, Options{Tstop: tstop, Step: h, Probes: []int{idx}, InitialState: zero})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if got := res.Times[len(res.Times)-1]; got != tstop {
			t.Errorf("%v: final time = %.17g, want exactly %.17g", m, got, tstop)
		}
		// 0, 3, 6, 9 ns plus the shortened 1ns step to 10ns.
		if len(res.Times) != 5 {
			t.Errorf("%v: %d output times %v, want 5", m, len(res.Times), res.Times)
		}
		// Final must be the state at Tstop, not at 9ns: at 10 tau the RC
		// step response has converged to -I·R within ~5e-5 relative, while
		// the value at 9ns differs from 10ns by ~1e-4 absolute. The loose
		// budget covers TR/BE discretization error at h = 3 tau.
		want := analyticRC(tstop, r, c, amp)
		got := res.Final[idx]
		if math.Abs(got-want) > 0.15*math.Abs(want) {
			t.Errorf("%v: Final = %g, want ≈ %g (state at Tstop)", m, got, want)
		}
		if res.Probes[len(res.Probes)-1][0] != got {
			t.Errorf("%v: last probe sample disagrees with Final", m)
		}
	}
}

// TestFixedStepDivisibleWindowUnchanged pins the behavior for exactly
// divisible windows: no sliver step is invented, the step count and the
// single stepping-matrix factorization stay as before.
func TestFixedStepDivisibleWindowUnchanged(t *testing.T) {
	sys, idx := rcStep(t, 1000, 1e-12, 1e-3)
	res, err := Simulate(sys, TRFixed, Options{Tstop: 5e-9, Step: 1e-11, Probes: []int{idx}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Steps != 500 {
		t.Errorf("steps = %d, want 500", res.Stats.Steps)
	}
	if res.Stats.Factorizations != 2 { // DC + one stepping matrix
		t.Errorf("factorizations = %d, want 2", res.Stats.Factorizations)
	}
	if got := res.Times[len(res.Times)-1]; got != 5e-9 {
		t.Errorf("final time = %.17g, want exactly 5e-9", got)
	}
}

// countingWave counts Value calls on the waveform it wraps.
type countingWave struct {
	waveform.Waveform
	calls *int
}

func (w countingWave) Value(t float64) float64 {
	*w.calls++
	return w.Waveform.Value(t)
}

// TestTREvaluatesInputOncePerTimePoint: step k's end point is step k+1's
// start point bit for bit, so TR evaluates B·u once per time point — steps+1
// times in all — across whole steps, the Tstop-snapped last step and the
// shortened remainder step alike.
func TestTREvaluatesInputOncePerTimePoint(t *testing.T) {
	for _, tc := range []struct{ tstop, h float64 }{{5e-9, 1e-11}, {10e-9, 3e-9}} {
		sys, idx := rcStep(t, 1000, 1e-12, 1e-3)
		calls := 0
		for k := range sys.Inputs {
			sys.Inputs[k].Wave = countingWave{sys.Inputs[k].Wave, &calls}
		}
		zero := make([]float64, sys.N) // no DC solve, so no evaluation outside the steps
		res, err := Simulate(sys, TRFixed, Options{Tstop: tc.tstop, Step: tc.h, Probes: []int{idx}, InitialState: zero})
		if err != nil {
			t.Fatal(err)
		}
		if want := (res.Stats.Steps + 1) * len(sys.Inputs); calls != want {
			t.Errorf("Tstop=%g h=%g: %d input evaluations over %d steps, want %d", tc.tstop, tc.h, calls, res.Stats.Steps, want)
		}
	}
}

// TestFixedStepShortWindow covers Tstop < Step: the whole window is one
// shortened step.
func TestFixedStepShortWindow(t *testing.T) {
	sys, idx := rcStep(t, 1000, 1e-12, 1e-3)
	res, err := Simulate(sys, BEFixed, Options{Tstop: 0.4e-9, Step: 1e-9, Probes: []int{idx}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Steps != 1 {
		t.Errorf("steps = %d, want 1", res.Stats.Steps)
	}
	if got := res.Times[len(res.Times)-1]; got != 0.4e-9 {
		t.Errorf("final time = %g, want 0.4e-9", got)
	}
}

// TestProbeHelpersWithoutProbes: a result recorded without probes must not
// panic from the probe accessors.
func TestProbeHelpersWithoutProbes(t *testing.T) {
	sys, _ := rcStep(t, 1000, 1e-12, 1e-3)
	res, err := Simulate(sys, TRFixed, Options{Tstop: 1e-9, Step: 1e-10}) // no Probes
	if err != nil {
		t.Fatal(err)
	}
	if got := res.InterpProbe(0.5e-9, 0); !math.IsNaN(got) {
		t.Errorf("InterpProbe on probe-less result = %g, want NaN", got)
	}
	if s := res.ProbeSeries(0); len(s) != 0 {
		t.Errorf("ProbeSeries on probe-less result has %d samples, want 0", len(s))
	}
	// Out-of-range probe columns are NaN/empty too, not a panic.
	res2, err := Simulate(sys, TRFixed, Options{Tstop: 1e-9, Step: 1e-10, Probes: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.InterpProbe(0.5e-9, 7); !math.IsNaN(got) {
		t.Errorf("InterpProbe out-of-range column = %g, want NaN", got)
	}
	if got := res2.InterpProbe(0.5e-9, -1); !math.IsNaN(got) {
		t.Errorf("InterpProbe negative column = %g, want NaN", got)
	}
	if s := res2.ProbeSeries(7); s != nil {
		t.Errorf("ProbeSeries out-of-range column = %v, want nil", s)
	}
	var empty Result
	if got := empty.InterpProbe(0, 0); !math.IsNaN(got) {
		t.Errorf("InterpProbe on empty result = %g, want NaN", got)
	}
}

// TestNaturalOrderingSelectable: OrderNatural must survive withDefaults —
// the old code silently rewrote it to the default's resolution, making
// natural ordering unselectable — and only the zero value is resolved, at
// the one place sparse resolves it.
func TestNaturalOrderingSelectable(t *testing.T) {
	o := Options{Ordering: sparse.OrderNatural}.withDefaults()
	if o.Ordering != sparse.OrderNatural {
		t.Errorf("OrderNatural rewritten to %v", o.Ordering)
	}
	d := Options{}.withDefaults()
	if d.Ordering == sparse.OrderDefault || d.Ordering != sparse.OrderDefault.Resolve() {
		t.Errorf("zero-value ordering resolves to %v, want %v", d.Ordering, sparse.OrderDefault.Resolve())
	}
}
