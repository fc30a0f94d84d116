package transient

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/pdn"
)

// roundTrip pushes a checkpoint through JSON the way the serve journal does;
// Go's float64 encoding is lossless, so the restored snapshot is bit-exact.
func roundTrip(t *testing.T, cp Checkpoint) Checkpoint {
	t.Helper()
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var out Checkpoint
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// assertResumeMatches runs method one-shot with checkpoints captured, then
// resumes from a mid-run checkpoint and asserts the resumed tail reproduces
// the one-shot samples within 1e-12 with no gaps or duplicates.
func assertResumeMatches(t *testing.T, sys *circuit.System, method Method, opts Options) {
	t.Helper()
	var cps []Checkpoint
	full := opts
	full.OnCheckpoint = func(cp Checkpoint) error {
		cps = append(cps, cp)
		return nil
	}
	oneShot, err := Simulate(sys, method, full)
	if err != nil {
		t.Fatalf("%v one-shot: %v", method, err)
	}
	if len(cps) < 2 {
		t.Fatalf("%v: only %d checkpoints captured; shrink CheckpointEvery", method, len(cps))
	}
	cp := roundTrip(t, cps[len(cps)/2])
	if cp.Method != method.Name() {
		t.Fatalf("%v: checkpoint method %q", method, cp.Method)
	}
	if cp.T <= 0 || cp.T >= opts.Tstop {
		t.Fatalf("%v: mid checkpoint at t=%g", method, cp.T)
	}

	resumed, err := Resume(sys, method, opts, cp)
	if err != nil {
		t.Fatalf("%v resume: %v", method, err)
	}
	// The resumed trace must be exactly the one-shot samples after cp.T.
	i0 := 0
	for i0 < len(oneShot.Times) && oneShot.Times[i0] <= cp.T {
		i0++
	}
	wantTimes := oneShot.Times[i0:]
	if len(resumed.Times) != len(wantTimes) {
		t.Fatalf("%v: resumed %d samples, want %d (from t=%g)", method, len(resumed.Times), len(wantTimes), cp.T)
	}
	for i := range wantTimes {
		if resumed.Times[i] != wantTimes[i] {
			t.Fatalf("%v: resumed time[%d] = %g, want %g", method, i, resumed.Times[i], wantTimes[i])
		}
		for k := range resumed.Probes[i] {
			if d := math.Abs(resumed.Probes[i][k] - oneShot.Probes[i0+i][k]); d > 1e-12 {
				t.Fatalf("%v: probe deviation %g at t=%g (col %d)", method, d, wantTimes[i], k)
			}
		}
	}
	for i := range resumed.Final {
		if d := math.Abs(resumed.Final[i] - oneShot.Final[i]); d > 1e-12 {
			t.Fatalf("%v: final-state deviation %g at unknown %d", method, d, i)
		}
	}
}

func TestResumeMatchesOneShotFixed(t *testing.T) {
	sys, idx := rcStep(t, 1000, 1e-12, 1e-3)
	zero := make([]float64, sys.N)
	assertResumeMatches(t, sys, TRFixed, Options{
		Tstop: 5e-9, Step: 1e-11, Probes: []int{idx},
		InitialState: zero, CheckpointEvery: 50,
	})
}

func pdnSystem(t *testing.T, scale float64) *circuit.System {
	return pdnSystemCNode(t, scale, 0)
}

// pdnSystemCNode is ibmpg1t with every node capacitor set to cnode farads
// (0 keeps the stock 10 fF). At 0.5 pF the mesh time constants reach the
// segment scale and R-MATEX moves its ramps to the deviation treatment.
func pdnSystemCNode(t *testing.T, scale, cnode float64) *circuit.System {
	t.Helper()
	spec, err := pdn.IBMCase("ibmpg1t", scale)
	if err != nil {
		t.Fatal(err)
	}
	if cnode > 0 {
		spec.CNode = cnode
	}
	ckt, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := circuit.Stamp(ckt, circuit.StampOptions{CollapseSupplies: true})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestResumeMatchesOneShotAdaptiveAndMatex(t *testing.T) {
	sys := pdnSystem(t, 0.2)
	probes := []int{0, sys.NumNodes / 2, sys.NumNodes - 1}
	assertResumeMatches(t, sys, TRAdaptive, Options{
		Tstop: 10e-9, Tol: 1e-4, Probes: probes, CheckpointEvery: 8,
	})
	for _, m := range []Method{IMATEX, RMATEX} {
		assertResumeMatches(t, sys, m, Options{
			Tstop: 10e-9, Tol: 1e-7, Probes: probes, CheckpointEvery: 4,
		})
	}
	// Singular C: R-MATEX resumes under the deviation treatment over the
	// rational operator.
	c, err := newOracleCase(1, oracleSingC, true)
	if err != nil {
		t.Fatal(err)
	}
	assertResumeMatches(t, c.sys, RMATEX, Options{
		Tstop: oracleTstop, Probes: []int{0, 1, c.sys.N - 1}, EvalTimes: c.evals, CheckpointEvery: 4,
	})
}

// TestResumeIsBitIdenticalAcrossTheTreatmentSwitch checkpoints every segment
// of a run whose ramps start augmented and move to deviation, and resumes
// from each of them, before and after the move: the choice state rides in
// the checkpoint and q is solved afresh, so every remaining sample and the
// final state repeat bit for bit.
// A checkpoint without the choice fields (a journal written before they
// existed) still resumes, starting over on augmented.
func TestResumeIsBitIdenticalAcrossTheTreatmentSwitch(t *testing.T) {
	sys := pdnSystemCNode(t, 1, 0.5e-12)
	opts := Options{Tstop: 10e-9, Probes: []int{0, sys.NumNodes / 2, sys.NumNodes - 1}, CheckpointEvery: 1}
	var cps []Checkpoint
	full := opts
	full.OnCheckpoint = func(cp Checkpoint) error {
		cps = append(cps, cp)
		return nil
	}
	oneShot, err := Simulate(sys, RMATEX, full)
	if err != nil {
		t.Fatal(err)
	}
	chosen := func(cp Checkpoint) bool { return cp.DevPairs > 0 && cp.DevPairs < cp.AugPairs }
	sw := 0
	for sw < len(cps) && !chosen(cps[sw]) {
		sw++
	}
	if sw == 0 || sw >= len(cps)-1 {
		t.Fatalf("the choice moved at checkpoint %d of %d: not a deck that switches", sw, len(cps))
	}
	tail := func(cp Checkpoint) ([]float64, [][]float64) {
		i0 := sort.SearchFloat64s(oneShot.Times, cp.T+1e-18)
		return oneShot.Times[i0:], oneShot.Probes[i0:]
	}
	for k := range cps[:len(cps)-1] { // the last one is the finished run
		cp := roundTrip(t, cps[k])
		res, err := Resume(sys, RMATEX, opts, cp)
		if err != nil {
			t.Fatalf("resume from checkpoint %d: %v", k, err)
		}
		times, probes := tail(cp)
		if !reflect.DeepEqual(res.Times, times) || !reflect.DeepEqual(res.Probes, probes) || !reflect.DeepEqual(res.Final, oneShot.Final) {
			t.Errorf("resume from checkpoint %d (t=%g, aug %d dev %d): not bit-identical to the uninterrupted run", k, cp.T, cp.AugPairs, cp.DevPairs)
		}
	}

	old := cps[sw+1]
	old.AugPairs, old.DevPairs = 0, 0
	res, err := Resume(sys, RMATEX, opts, roundTrip(t, old))
	if err != nil {
		t.Fatalf("resume without choice fields: %v", err)
	}
	times, probes := tail(old)
	if !reflect.DeepEqual(res.Times, times) {
		t.Fatalf("resume without choice fields: %d samples, want %d", len(res.Times), len(times))
	}
	for i := range probes {
		for k := range probes[i] {
			if d := math.Abs(res.Probes[i][k] - probes[i][k]); d > 1e-6 {
				t.Fatalf("resume without choice fields: %g V off at t=%g", d, times[i])
			}
		}
	}
}

func TestResumeMatchesOneShotMexp(t *testing.T) {
	// MEXP on the stiff PDN runs thousands of MaxStep-clamped segments;
	// the RC stage exercises the same resume path at unit-test cost.
	sys, idx := rcStep(t, 1000, 1e-12, 1e-3)
	zero := make([]float64, sys.N)
	evals := make([]float64, 0, 101)
	for i := 0; i <= 100; i++ {
		evals = append(evals, float64(i)*5e-9/100)
	}
	assertResumeMatches(t, sys, MEXP, Options{
		Tstop: 5e-9, Tol: 1e-9, Probes: []int{idx}, EvalTimes: evals,
		InitialState: zero, CheckpointEvery: 10, MaxStep: 2.5e-10,
	})
}

func TestResumeValidation(t *testing.T) {
	sys, _ := rcStep(t, 1000, 1e-12, 1e-3)
	good := make([]float64, sys.N)
	cases := []struct {
		name string
		cp   Checkpoint
	}{
		{"wrong method", Checkpoint{Method: "tradpt", T: 1e-9, X: good}},
		{"bad state length", Checkpoint{Method: "tr", T: 1e-9, X: make([]float64, sys.N+1)}},
		{"bad xprev length", Checkpoint{Method: "tr", T: 1e-9, X: good, XPrev: make([]float64, sys.N+2)}},
		{"negative time", Checkpoint{Method: "tr", T: -1e-9, X: good}},
		{"off-grid time", Checkpoint{Method: "tr", T: 1.5e-11, X: good}},
	}
	for _, tc := range cases {
		_, err := Resume(sys, TRFixed, Options{Tstop: 5e-9, Step: 1e-11}, tc.cp)
		if err == nil {
			t.Errorf("%s: Resume accepted invalid checkpoint", tc.name)
		}
	}
	// A checkpoint at Tstop is a completed run, not an error.
	res, err := Resume(sys, TRFixed, Options{Tstop: 5e-9, Step: 1e-11}, Checkpoint{Method: "tr", T: 5e-9, X: good})
	if err != nil {
		t.Fatalf("resume at Tstop: %v", err)
	}
	if len(res.Times) != 0 || len(res.Final) != sys.N {
		t.Fatalf("resume at Tstop: %d samples, final len %d", len(res.Times), len(res.Final))
	}
}

func TestOnCheckpointErrorAbortsRun(t *testing.T) {
	sys, idx := rcStep(t, 1000, 1e-12, 1e-3)
	boom := errors.New("journal full")
	_, err := Simulate(sys, TRFixed, Options{
		Tstop: 5e-9, Step: 1e-11, Probes: []int{idx}, CheckpointEvery: 10,
		OnCheckpoint: func(Checkpoint) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("expected wrapped hook error, got %v", err)
	}
}

func TestCheckpointCadence(t *testing.T) {
	sys, _ := rcStep(t, 1000, 1e-12, 1e-3)
	var n int
	_, err := Simulate(sys, TRFixed, Options{
		Tstop: 5e-9, Step: 1e-11, CheckpointEvery: 1,
		OnCheckpoint: func(cp Checkpoint) error {
			if len(cp.X) != sys.N || cp.T <= 0 {
				t.Fatalf("malformed checkpoint %+v", cp)
			}
			n++
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 500 full steps; every accepted step checkpoints.
	if n < 400 {
		t.Fatalf("CheckpointEvery=1 fired %d times over 500 steps", n)
	}
}
