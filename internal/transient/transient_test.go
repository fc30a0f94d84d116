package transient

import (
	"math"
	"testing"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/pdn"
	"github.com/matex-sim/matex/internal/waveform"
)

// rcStep builds a single RC stage driven by a step of current: analytic
// response v(t) = -I·R·(1 - e^{-t/RC}) at the driven node.
func rcStep(t *testing.T, r, c, amp float64) (*circuit.System, int) {
	t.Helper()
	ckt, err := pdn.Ladder(1, r, c, &waveform.Pulse{V1: 0, V2: amp, Delay: 0, Rise: 0, Width: 1, Fall: 0})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := circuit.Stamp(ckt, circuit.StampOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idx, _, _, err := sys.NodeIndex("n1")
	if err != nil {
		t.Fatal(err)
	}
	return sys, idx
}

func analyticRC(tt, r, c, amp float64) float64 {
	return -amp * r * (1 - math.Exp(-tt/(r*c)))
}

func TestFixedMethodsMatchAnalyticRC(t *testing.T) {
	r, c, amp := 1000.0, 1e-12, 1e-3 // tau = 1 ns
	sys, idx := rcStep(t, r, c, amp)
	tstop := 5e-9
	// The pulse is already on at t=0, so start from the zero state: the
	// response is the classic step charge-up -I·R·(1-e^{-t/RC}).
	zero := make([]float64, sys.N)
	res, err := Simulate(sys, TRFixed, Options{Tstop: tstop, Step: 1e-11, Probes: []int{idx}, InitialState: zero})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Factorizations != 2 { // DC + stepping matrix
		t.Errorf("factorizations = %d, want 2", res.Stats.Factorizations)
	}
	for i, tt := range res.Times {
		want := analyticRC(tt, r, c, amp)
		got := res.Probes[i][0]
		if math.Abs(got-want) > 2e-3*amp*r {
			t.Fatalf("v(%g) = %g, want %g", tt, got, want)
		}
	}
}

func TestMatexModesMatchAnalyticRC(t *testing.T) {
	r, c, amp := 1000.0, 1e-12, 1e-3
	sys, idx := rcStep(t, r, c, amp)
	tstop := 5e-9
	evals := make([]float64, 0, 11)
	for i := 0; i <= 10; i++ {
		evals = append(evals, float64(i)*tstop/10)
	}
	zero := make([]float64, sys.N)
	for _, m := range []Method{MEXP, IMATEX, RMATEX} {
		res, err := Simulate(sys, m, Options{
			Tstop: tstop, Probes: []int{idx}, EvalTimes: evals, Tol: 1e-9, Gamma: 1e-10,
			InitialState: zero,
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(res.Times) != len(evals) {
			t.Fatalf("%v: %d output times, want %d", m, len(res.Times), len(evals))
		}
		for i, tt := range res.Times {
			want := analyticRC(tt, r, c, amp)
			got := res.Probes[i][0]
			if math.Abs(got-want) > 1e-4*amp*r {
				t.Fatalf("%v: v(%g) = %g, want %g (err %g)", m, tt, got, want, got-want)
			}
		}
	}
}

func TestMatexFactorizationBudget(t *testing.T) {
	// The headline feature: adaptive stepping with no re-factorization.
	// I-MATEX must factorize exactly once (G, at DC); R-MATEX twice
	// (G and C+γG); both independent of the number of transitions.
	spec, err := pdn.IBMCase("ibmpg1t", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := circuit.Stamp(ckt, circuit.StampOptions{CollapseSupplies: true})
	if err != nil {
		t.Fatal(err)
	}
	resI, err := Simulate(sys, IMATEX, Options{Tstop: 10e-9, Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if resI.Stats.Factorizations != 1 {
		t.Errorf("I-MATEX factorizations = %d, want 1", resI.Stats.Factorizations)
	}
	resR, err := Simulate(sys, RMATEX, Options{Tstop: 10e-9, Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if resR.Stats.Factorizations != 2 {
		t.Errorf("R-MATEX factorizations = %d, want 2", resR.Stats.Factorizations)
	}
	if resR.Stats.MP() == 0 || resR.Stats.MA() == 0 {
		t.Error("R-MATEX Krylov dimension stats empty")
	}
}

func TestAdaptiveTRRefactorizes(t *testing.T) {
	spec, err := pdn.IBMCase("ibmpg1t", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := circuit.Stamp(ckt, circuit.StampOptions{CollapseSupplies: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(sys, TRAdaptive, Options{Tstop: 10e-9, Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Factorizations < 5 {
		t.Errorf("adaptive TR factorizations = %d, expected many (re-factorizes on step change)", res.Stats.Factorizations)
	}
}

// TestAdaptiveTRHonoursExplicitTolerance pins the LTE default to the
// caller's raw Tol: an explicit 1e-6 — the value withDefaults fills in for
// the MATEX methods — used to be taken for "unset" and loosened to 1e-4.
func TestAdaptiveTRHonoursExplicitTolerance(t *testing.T) {
	sys := pdnSystem(t, 0.2)
	run := func(tol float64) *Result {
		res, err := Simulate(sys, TRAdaptive, Options{Tstop: 10e-9, Tol: tol, Probes: []int{0, sys.NumNodes / 2}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	unset, loose, tight := run(0), run(1e-4), run(1e-6)
	if tight.Stats.Steps <= loose.Stats.Steps {
		t.Errorf("Tol 1e-6 took %d steps, Tol 1e-4 took %d: the tighter target was not honoured", tight.Stats.Steps, loose.Stats.Steps)
	}
	if len(unset.Times) != len(loose.Times) {
		t.Fatalf("unset Tol took %d samples, Tol 1e-4 took %d", len(unset.Times), len(loose.Times))
	}
	for i := range unset.Times {
		if unset.Times[i] != loose.Times[i] || unset.Probes[i][0] != loose.Probes[i][0] || unset.Probes[i][1] != loose.Probes[i][1] {
			t.Fatalf("unset Tol and Tol 1e-4 diverge at sample %d", i)
		}
	}
}

func TestCrossMethodConsistencyOnPDN(t *testing.T) {
	spec, err := pdn.IBMCase("ibmpg1t", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := circuit.Stamp(ckt, circuit.StampOptions{CollapseSupplies: true})
	if err != nil {
		t.Fatal(err)
	}
	probes := []int{0, sys.NumNodes / 2, sys.NumNodes - 1}
	tstop := 10e-9

	ref, err := Simulate(sys, TRFixed, Options{Tstop: tstop, Step: 2e-12, Probes: probes})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{IMATEX, RMATEX} {
		res, err := Simulate(sys, m, Options{Tstop: tstop, Probes: probes, Tol: 1e-7})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		var maxErr float64
		for i, tt := range res.Times {
			for k := range probes {
				want := ref.InterpProbe(tt, k)
				if d := math.Abs(res.Probes[i][k] - want); d > maxErr {
					maxErr = d
				}
			}
		}
		// Supply is 1.8V; paper reports ~2e-4 max error.
		if maxErr > 2e-3 {
			t.Errorf("%v: max deviation from fine TR = %g", m, maxErr)
		}
	}
}

func TestActiveMaskZeroInputsStaysAtInitial(t *testing.T) {
	sys, idx := rcStep(t, 1000, 1e-12, 1e-3)
	mask := make([]bool, len(sys.Inputs)) // all inactive
	res, err := Simulate(sys, RMATEX, Options{
		Tstop: 1e-9, Probes: []int{idx}, ActiveInputs: mask,
		InitialState: make([]float64, sys.N),
		EvalTimes:    []float64{0, 0.5e-9, 1e-9},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Times {
		if math.Abs(res.Probes[i][0]) > 1e-15 {
			t.Fatalf("zero-input zero-state response nonzero: %g at %g", res.Probes[i][0], res.Times[i])
		}
	}
}

func TestSuperpositionOfMasks(t *testing.T) {
	// Zero-state response to all inputs equals the sum of per-input
	// zero-state responses — the foundation of the distributed MATEX.
	ckt, err := pdn.Ladder(4, 100, 1e-12, &waveform.Pulse{V1: 0, V2: 1e-3, Delay: 1e-10, Rise: 1e-10, Width: 5e-10, Fall: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	ckt.AddI("I2", "n2", "0", &waveform.Pulse{V1: 0, V2: 2e-3, Delay: 3e-10, Rise: 2e-10, Width: 4e-10, Fall: 2e-10})
	sys, err := circuit.Stamp(ckt, circuit.StampOptions{})
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]float64, sys.N)
	evals := sys.GTS(3e-9)
	probes := []int{0, 1, 2, 3}
	full, err := Simulate(sys, RMATEX, Options{Tstop: 3e-9, Probes: probes, EvalTimes: evals, InitialState: zero, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	sum := make([][]float64, len(full.Times))
	for i := range sum {
		sum[i] = make([]float64, len(probes))
	}
	for k := range sys.Inputs {
		mask := make([]bool, len(sys.Inputs))
		mask[k] = true
		part, err := Simulate(sys, RMATEX, Options{Tstop: 3e-9, Probes: probes, EvalTimes: evals, InitialState: zero, ActiveInputs: mask, Tol: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		if len(part.Times) != len(full.Times) {
			t.Fatalf("grid mismatch: %d vs %d", len(part.Times), len(full.Times))
		}
		for i := range part.Times {
			for j := range probes {
				sum[i][j] += part.Probes[i][j]
			}
		}
	}
	for i := range full.Times {
		for j := range probes {
			if d := math.Abs(sum[i][j] - full.Probes[i][j]); d > 1e-5 {
				t.Fatalf("superposition mismatch at t=%g probe %d: %g vs %g", full.Times[i], j, sum[i][j], full.Probes[i][j])
			}
		}
	}
}

func TestMexpRegularizesSingularC(t *testing.T) {
	// An RL circuit has a singular C in node rows; MEXP must regularize,
	// I-MATEX and R-MATEX must not.
	ckt := circuit.New("rl")
	ckt.AddV("v1", "a", "0", waveform.DC(1))
	if err := ckt.AddR("r1", "a", "b", 10); err != nil {
		t.Fatal(err)
	}
	if err := ckt.AddL("l1", "b", "0", 1e-9); err != nil {
		t.Fatal(err)
	}
	sys, err := circuit.Stamp(ckt, circuit.StampOptions{CollapseSupplies: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(sys, MEXP, Options{Tstop: 1e-9, Tol: 1e-6, EvalTimes: []float64{0, 1e-9}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Regularized {
		t.Error("MEXP did not regularize singular C")
	}
	resR, err := Simulate(sys, RMATEX, Options{Tstop: 1e-9, Tol: 1e-6, EvalTimes: []float64{0, 1e-9}})
	if err != nil {
		t.Fatal(err)
	}
	if resR.Stats.Regularized {
		t.Error("R-MATEX regularized; it should be regularization-free")
	}
	// Node b has no capacitor, so this run takes the deviation treatment; its
	// (C+γG) factorization must be accounted like any other run's.
	if resR.Stats.FactorTime <= 0 {
		t.Errorf("R-MATEX on singular C reports FactorTime %v, want > 0", resR.Stats.FactorTime)
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{}
	x := []float64{1, 2, 3}
	ropts := &Options{Probes: []int{0, 2}}
	r.record(0, x, ropts)
	x[0] = 5
	r.record(1, x, ropts)
	if r.Probes[0][0] != 1 || r.Probes[1][0] != 5 || r.Probes[0][1] != 3 {
		t.Fatal("record wrong")
	}
	s := r.ProbeSeries(0)
	if s[0] != 1 || s[1] != 5 {
		t.Fatal("ProbeSeries wrong")
	}
	if got := r.InterpProbe(0.5, 0); got != 3 {
		t.Fatalf("InterpProbe = %v, want 3", got)
	}
	if got := r.InterpProbe(-1, 0); got != 1 {
		t.Fatalf("InterpProbe clamp low = %v", got)
	}
	if got := r.InterpProbe(9, 0); got != 5 {
		t.Fatalf("InterpProbe clamp high = %v", got)
	}
}

func TestOptionValidation(t *testing.T) {
	sys, _ := rcStep(t, 1000, 1e-12, 1e-3)
	if _, err := Simulate(sys, TRFixed, Options{Tstop: 1e-9}); err == nil {
		t.Error("TR without step accepted")
	}
	if _, err := Simulate(sys, RMATEX, Options{}); err == nil {
		t.Error("MATEX without Tstop accepted")
	}
	if _, err := Simulate(sys, Method(99), Options{Tstop: 1}); err == nil {
		t.Error("unknown method accepted")
	}
	if _, err := Simulate(sys, RMATEX, Options{Tstop: 1e-9, InitialState: make([]float64, sys.N+5)}); err == nil {
		t.Error("bad initial state length accepted")
	}
}

func TestStatsMAMP(t *testing.T) {
	s := Stats{KrylovDims: []int{4, 6, 8}}
	if s.MA() != 6 || s.MP() != 8 {
		t.Fatalf("MA=%v MP=%v", s.MA(), s.MP())
	}
	var empty Stats
	if empty.MA() != 0 || empty.MP() != 0 {
		t.Fatal("empty stats should be zero")
	}
}
