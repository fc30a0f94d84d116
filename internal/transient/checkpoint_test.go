package transient

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

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
	// The counters the checkpoint carried plus the resumed run's own are
	// the one-shot run's, but for the substitution pair a MATEX run spends
	// on the q it solves afresh where it resumes.
	type counts struct {
		steps, rejected, pairs, spmvs, expms, lanczos int
		dims                                          string
	}
	count := func(s *Stats) counts {
		return counts{s.Steps, s.Rejected, s.SolvePairs, s.SpMVs, s.ExpmEvals, s.LanczosSpots, fmt.Sprint(s.Dims)}
	}
	got, want := count(&resumed.Stats), count(&oneShot.Stats)
	if method != TRFixed && method != TRAdaptive && got.pairs == want.pairs+1 {
		got.pairs--
	}
	if got != want {
		t.Errorf("%v: resumed counters %+v, one-shot %+v", method, got, want)
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
// The uninterrupted run took the input terms of most segments from the
// run-ahead helper, and a resumed run computes its first segment's inline,
// so the two must agree bit for bit.
func TestResumeIsBitIdenticalAcrossTheTreatmentSwitch(t *testing.T) {
	sys := pdnSystemCNode(t, 1, 0.5e-12)
	opts := Options{Tstop: 10e-9, Probes: []int{0, sys.NumNodes / 2, sys.NumNodes - 1}, CheckpointEvery: 1}
	oneShot, cps := resumeFromEvery(t, sys, RMATEX, opts)
	chosen := func(cp Checkpoint) bool { return cp.DevPairs > 0 && cp.DevPairs < cp.AugPairs }
	sw := 0
	for sw < len(cps) && !chosen(cps[sw]) {
		sw++
	}
	if sw == 0 || sw >= len(cps)-1 {
		t.Fatalf("the choice moved at checkpoint %d of %d: not a deck that switches", sw, len(cps))
	}

	// The last resumable checkpoint as a build whose Done held only the
	// step-driven counters, the dimensions as a histogram, journaled it:
	// it decodes to the same record and resumes to the same bytes and
	// counters. No pair is discarded on this deck, so two are added to
	// have input_discarded in the record.
	cp := cps[len(cps)-2]
	done := *cp.Done
	done.InputDiscarded += 2
	cp.Done = &done
	d := cp.Done
	if d.InputAhead == 0 || d.Spots() == 0 {
		t.Fatalf("checkpoint at t=%g carries no run-ahead pairs or no spots: %+v", cp.T, d)
	}
	raw, err := json.Marshal(struct {
		Checkpoint
		Done olderDone `json:"done"`
	}{cp, olderDone{d.Steps, d.Rejected, d.SolvePairs, d.SpMVs, d.ExpmEvals, d.LanczosSpots, d.InputPairs,
		d.DeviationSpots, d.InputAhead, d.InputDiscarded, d.Dims}})
	if err != nil {
		t.Fatal(err)
	}
	var older Checkpoint
	if err := json.Unmarshal(raw, &older); err != nil || !reflect.DeepEqual(older, roundTrip(t, cp)) {
		t.Fatalf("checkpoint in the older spelling decodes to %+v (%v), want %+v", older.Done, err, cp.Done)
	}
	resumed := make([]*Result, 2)
	for i, c := range []Checkpoint{older, roundTrip(t, cp)} {
		if resumed[i], err = Resume(sys, RMATEX, opts, c); err != nil {
			t.Fatal(err)
		}
		resumed[i].Stats.DCTime, resumed[i].Stats.FactorTime, resumed[i].Stats.TransientTime = 0, 0, 0
	}
	if times, probes := tailAfter(oneShot, cp.T); !reflect.DeepEqual(resumed[0].Times, times) || !reflect.DeepEqual(resumed[0].Probes, probes) || !reflect.DeepEqual(resumed[0].Final, oneShot.Final) {
		t.Error("resume from the checkpoint in the older spelling: not bit-identical to the uninterrupted run")
	}
	if !reflect.DeepEqual(resumed[0].Stats, resumed[1].Stats) || resumed[0].Stats.InputDiscarded != oneShot.Stats.InputDiscarded+2 {
		t.Errorf("resume from the checkpoint in the older spelling: counters %+v, want %+v", resumed[0].Stats, resumed[1].Stats)
	}

	old := cps[sw+1]
	old.AugPairs, old.DevPairs = 0, 0
	res, err := Resume(sys, RMATEX, opts, roundTrip(t, old))
	if err != nil {
		t.Fatalf("resume without choice fields: %v", err)
	}
	times, probes := tailAfter(oneShot, old.T)
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

// olderDone is Checkpoint.Done as journals written before Done became a
// Stats spell it: the step-driven counters only, zeros omitted.
type olderDone struct {
	Steps          int   `json:"steps,omitempty"`
	Rejected       int   `json:"rejected,omitempty"`
	SolvePairs     int   `json:"solve_pairs,omitempty"`
	SpMVs          int   `json:"spmvs,omitempty"`
	ExpmEvals      int   `json:"expm_evals,omitempty"`
	LanczosSpots   int   `json:"lanczos_spots,omitempty"`
	InputPairs     int   `json:"input_pairs,omitempty"`
	DeviationSpots int   `json:"deviation_spots,omitempty"`
	InputAhead     int   `json:"input_ahead,omitempty"`
	InputDiscarded int   `json:"input_discarded,omitempty"`
	Dims           []int `json:"krylov_dims,omitempty"`
}

// TestResumeIMATEXIsBitIdenticalFromEverySegment resumes I-MATEX, which
// takes every ramp on the deviation, from every segment of the switching
// deck above: the run-ahead helper's input terms and the resumed run's
// inline ones, carried base q included, must agree bit for bit.
func TestResumeIMATEXIsBitIdenticalFromEverySegment(t *testing.T) {
	sys := pdnSystemCNode(t, 1, 0.5e-12)
	opts := Options{Tstop: 10e-9, Probes: []int{0, sys.NumNodes / 2, sys.NumNodes - 1}, CheckpointEvery: 1}
	resumeFromEvery(t, sys, IMATEX, opts)
}

// resumeFromEvery runs method with a checkpoint at every segment, resumes
// from each checkpoint but the last (the finished run) and requires the
// uninterrupted run's remaining samples and final state bit for bit. It
// returns the uninterrupted run and its checkpoints.
func resumeFromEvery(t *testing.T, sys *circuit.System, method Method, opts Options) (*Result, []Checkpoint) {
	t.Helper()
	var cps []Checkpoint
	full := opts
	full.OnCheckpoint = func(cp Checkpoint) error {
		cps = append(cps, cp)
		return nil
	}
	oneShot, err := Simulate(sys, method, full)
	if err != nil {
		t.Fatalf("%v: %v", method, err)
	}
	if oneShot.Stats.InputAhead == 0 {
		t.Fatalf("%v: no input terms taken from the helper", method)
	}
	for k := range cps[:len(cps)-1] {
		cp := roundTrip(t, cps[k])
		res, err := Resume(sys, method, opts, cp)
		if err != nil {
			t.Fatalf("%v: resume from checkpoint %d: %v", method, k, err)
		}
		times, probes := tailAfter(oneShot, cp.T)
		if !reflect.DeepEqual(res.Times, times) || !reflect.DeepEqual(res.Probes, probes) || !reflect.DeepEqual(res.Final, oneShot.Final) {
			t.Errorf("%v: resume from checkpoint %d (t=%g, aug %d dev %d): not bit-identical to the uninterrupted run", method, k, cp.T, cp.AugPairs, cp.DevPairs)
		}
	}
	return oneShot, cps
}

// tailAfter returns res's samples after time t.
func tailAfter(res *Result, t float64) ([]float64, [][]float64) {
	i0 := sort.SearchFloat64s(res.Times, t+1e-18)
	return res.Times[i0:], res.Probes[i0:]
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

// TestStatsFieldsAreDeclaredOnce walks every field of Stats, the embedded
// krylov.Counters' included, so a counter is declared in one place: Add sums
// each counter (the histogram element-wise, Regularized or-ed) and leaves
// the durations alone, a checkpoint's JSON keeps each field, and carried
// zeroes exactly the per-life fields. A field added to Stats but left out
// of Add, or out of the JSON, fails here.
func TestStatsFieldsAreDeclaredOnce(t *testing.T) {
	perLife := map[string]bool{"Factorizations": true, "CacheHits": true, "CacheMisses": true, "SymbolicHits": true,
		"Refactors": true, "Regularized": true, "DCTime": true, "FactorTime": true, "TransientTime": true}
	durType := reflect.TypeOf(time.Duration(0))
	var fields []reflect.StructField
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Stats{})) {
		if !f.Anonymous {
			fields = append(fields, f)
		}
	}
	// filled sets field i to seed+i (Dims: one spot each of dimension 1 and
	// seed+i), and Regularized to whether seed is odd.
	filled := func(seed int) Stats {
		var s Stats
		v := reflect.ValueOf(&s).Elem()
		for i, f := range fields {
			switch x := v.FieldByIndex(f.Index); x.Kind() {
			case reflect.Int, reflect.Int64:
				x.SetInt(int64(seed + i))
			case reflect.Bool:
				x.SetBool(seed%2 == 1)
			default:
				if f.Name != "Dims" {
					t.Fatalf("Stats.%s: a %v, which this test does not know how to fold", f.Name, f.Type)
				}
				s.Dims = make([]int, seed+i+1)
				s.Dims[1], s.Dims[seed+i] = 1, 1
			}
		}
		return s
	}
	a, b := filled(2), filled(101)
	sum := filled(2)
	sum.Add(&b)
	sv, av, bv := reflect.ValueOf(sum), reflect.ValueOf(a), reflect.ValueOf(b)
	for _, f := range fields {
		got, x, y := sv.FieldByIndex(f.Index), av.FieldByIndex(f.Index), bv.FieldByIndex(f.Index)
		var want any
		switch {
		case f.Type == durType:
			want = x.Interface()
		case f.Type.Kind() == reflect.Int:
			want = int(x.Int() + y.Int())
		case f.Type.Kind() == reflect.Bool:
			want = x.Bool() || y.Bool()
		default:
			d := make([]int, max(x.Len(), y.Len()))
			for m := range d {
				if m < x.Len() {
					d[m] += a.Dims[m]
				}
				if m < y.Len() {
					d[m] += b.Dims[m]
				}
			}
			want = d
		}
		if !reflect.DeepEqual(got.Interface(), want) {
			t.Errorf("Add: Stats.%s = %v, want %v", f.Name, got.Interface(), want)
		}
	}

	back := roundTrip(t, Checkpoint{Method: "rmatex", X: []float64{1}, Done: &b})
	carried := b.carried()
	carried.Dims[1]++ // its own histogram, not b's
	bv, rv, cv := reflect.ValueOf(b), reflect.ValueOf(*back.Done), reflect.ValueOf(*b.carried())
	for _, f := range fields {
		x := bv.FieldByIndex(f.Index).Interface()
		if got := rv.FieldByIndex(f.Index).Interface(); !reflect.DeepEqual(got, x) {
			t.Errorf("checkpoint JSON: Stats.%s = %v, want %v", f.Name, got, x)
		}
		c := cv.FieldByIndex(f.Index)
		if perLife[f.Name] != c.IsZero() || !perLife[f.Name] && !reflect.DeepEqual(c.Interface(), x) {
			t.Errorf("carried: Stats.%s = %v of %v (per life: %v)", f.Name, c.Interface(), x, perLife[f.Name])
		}
	}
}
