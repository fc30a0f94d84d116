package sweep

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/pdn"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/transient"
)

func ibmSystem(t *testing.T, scale float64) *circuit.System {
	return ibmSystemCNode(t, scale, 0)
}

// ibmSystemCNode is ibmpg1t with every node capacitor at cnode farads (0:
// the stock 10 fF). At 0.5 pF R-MATEX moves its ramps from the augmented to
// the deviation treatment a few spots into the run.
func ibmSystemCNode(t *testing.T, scale, cnode float64) *circuit.System {
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

func baseOpts(sys *circuit.System) transient.Options {
	// A directly integrated lane is a solo run over a shared cache, so
	// sweep lanes reproduce solo runs bitwise at any tolerance.
	return transient.Options{
		Tstop:  10e-9,
		Tol:    1e-8,
		Probes: []int{0, sys.NumNodes / 3, sys.NumNodes - 1},
	}
}

// soloRun simulates one variant on its own, the reference the sweep must
// reproduce.
func soloRun(t *testing.T, sys *circuit.System, v Variant, method transient.Method, opts transient.Options) *transient.Result {
	t.Helper()
	cvs, err := compile(sys, []Variant{v})
	if err != nil {
		t.Fatal(err)
	}
	r, err := transient.Simulate(cvs[0].system(sys), method, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func maxProbeDiff(t *testing.T, a *transient.Result, b VariantResult) float64 {
	t.Helper()
	if len(a.Times) != len(b.Times) {
		t.Fatalf("grids differ: solo %d vs sweep %d samples", len(a.Times), len(b.Times))
	}
	var max float64
	for i := range a.Times {
		if a.Times[i] != b.Times[i] {
			t.Fatalf("time grid diverges at %d: %g vs %g", i, a.Times[i], b.Times[i])
		}
		for k := range a.Probes[i] {
			if d := math.Abs(a.Probes[i][k] - b.Probes[i][k]); d > max {
				max = d
			}
		}
	}
	return max
}

// cornerVariants builds non-collinear per-source corner patterns, so every
// variant integrates on its own lane.
func cornerVariants() []Variant {
	return []Variant{
		{Name: "typ"},
		{Name: "hot1", SourceScales: map[string]float64{"Iload1": 1.4}},
		{Name: "hot2", SourceScales: map[string]float64{"Iload2": 0.6, "Iload3": 1.2}},
		{Name: "fast", Scale: 1.1, SourceScales: map[string]float64{"Iload1": 0.8}},
		{Name: "mc", Sigma: 0.1, Seed: 42},
	}
}

// TestSweepMatchesSolo_Aligned is the tentpole equivalence test: N
// non-collinear variants with identical transition spots, run as one
// sweep of parallel lanes, must reproduce N solo runs to 1e-10 while
// sharing the factorization lineage.
func TestSweepMatchesSolo_Aligned(t *testing.T) {
	sys := ibmSystem(t, 0.2)
	variants := cornerVariants()
	opts := Options{Base: baseOpts(sys), Method: transient.RMATEX}
	res, err := Run(sys, variants, opts)
	if err != nil {
		t.Fatal(err)
	}
	soloFactorizations := 0
	for v, va := range variants {
		solo := soloRun(t, sys, va, transient.RMATEX, baseOpts(sys))
		if v == 0 {
			soloFactorizations = solo.Stats.Factorizations
		}
		if d := maxProbeDiff(t, solo, res.Variants[v]); d > 1e-10 {
			t.Errorf("variant %q deviates from solo by %g > 1e-10", va.Name, d)
		}
		if res.Variants[v].Shared {
			t.Errorf("variant %q unexpectedly served by sharing", va.Name)
		}
	}
	if res.Stats.Lanes != len(variants) {
		t.Errorf("lanes = %d, want %d", res.Stats.Lanes, len(variants))
	}
	// One factorization lineage for the whole sweep: no more computed
	// factorizations than a single solo run.
	if res.Sim.Factorizations > soloFactorizations {
		t.Errorf("sweep computed %d factorizations, one solo run computes %d",
			res.Sim.Factorizations, soloFactorizations)
	}
	if res.Sim.CacheHits == 0 {
		t.Error("sweep lanes recorded no factorization-cache hits")
	}
}

// TestSweepMatchesSolo_Misaligned repeats the equivalence check with
// per-user stimulus overrides that shift two variants' transition spots
// off the others' grids: results must still match solo runs.
func TestSweepMatchesSolo_Misaligned(t *testing.T) {
	sys := ibmSystem(t, 0.2)
	variants := []Variant{
		{Name: "typ"},
		{Name: "shift", Overrides: map[string]Override{
			"Iload1": {Type: "pulse", V1: 0, V2: 0.02, Delay: 1.7e-9, Rise: 0.3e-9, Width: 1.1e-9, Fall: 0.4e-9, Period: 4.3e-9},
		}},
		{Name: "pwl", Overrides: map[string]Override{
			"Iload2": {Type: "pwl", T: []float64{0, 0.9e-9, 2.1e-9, 3.7e-9, 10e-9}, Vals: []float64{0, 0.015, 0.002, 0.02, 0.001}},
		}},
		{Name: "hot", SourceScales: map[string]float64{"Iload3": 1.5}},
	}
	opts := Options{Base: baseOpts(sys), Method: transient.RMATEX}
	res, err := Run(sys, variants, opts)
	if err != nil {
		t.Fatal(err)
	}
	for v, va := range variants {
		solo := soloRun(t, sys, va, transient.RMATEX, baseOpts(sys))
		if d := maxProbeDiff(t, solo, res.Variants[v]); d > 1e-10 {
			t.Errorf("variant %q deviates from solo by %g > 1e-10", va.Name, d)
		}
	}
}

// TestSweepCollinearSharing checks the linearity fast path: exact
// duplicates are bitwise copies, uniformly scaled corners are served by
// two component integrations (supplies + loads) instead of one lane per
// variant, and stay within the solver tolerance of solo runs.
func TestSweepCollinearSharing(t *testing.T) {
	sys := ibmSystem(t, 0.2)
	variants := []Variant{
		{Name: "typ"},
		{Name: "dup"},                // exact duplicate of typ
		{Name: "half", Scale: 0.5},   // collinear, c = 0.5
		{Name: "double", Scale: 2.0}, // collinear, becomes the representative
	}
	opts := Options{Base: baseOpts(sys), Method: transient.RMATEX}
	res, err := Run(sys, variants, opts)
	if err != nil {
		t.Fatal(err)
	}
	// One collinear group with distinct scales on a deck with supply
	// terms: exactly two component lanes.
	if res.Stats.Lanes != 2 {
		t.Fatalf("lanes = %d, want 2 (supplies + loads superposition)", res.Stats.Lanes)
	}
	if res.Stats.SharedVariants != len(variants) {
		t.Errorf("shared variants = %d, want %d", res.Stats.SharedVariants, len(variants))
	}
	// Duplicates must agree bitwise with each other.
	for i := range res.Variants[0].Times {
		for k := range res.Variants[0].Probes[i] {
			if res.Variants[0].Probes[i][k] != res.Variants[1].Probes[i][k] {
				t.Fatalf("duplicate variants diverge at sample %d", i)
			}
		}
	}
	// And every variant tracks its solo run within the Krylov budget
	// (superposition adds the two components' tolerances).
	for v, va := range variants {
		solo := soloRun(t, sys, va, transient.RMATEX, baseOpts(sys))
		if d := maxProbeDiff(t, solo, res.Variants[v]); d > 1e-6 {
			t.Errorf("variant %q deviates from solo by %g > 1e-6", va.Name, d)
		}
	}
}

// TestSweepStreamsEveryVariant: for a split collinear group (three variants
// derived as x_sup + c·x_load) beside a directly integrated variant,
// OnVariantSample delivers each variant's rows one at a time, in time order,
// and they are the rows Run returns, bit for bit.
func TestSweepStreamsEveryVariant(t *testing.T) {
	sys := ibmSystem(t, 0.2)
	variants := []Variant{
		{Name: "typ"},
		{Name: "half", Scale: 0.5},
		{Name: "double", Scale: 2.0},
		{Name: "hot", SourceScales: map[string]float64{"Iload1": 1.4}},
	}
	type stream struct {
		busy  bool
		times []float64
		rows  [][]float64
	}
	var mu sync.Mutex
	got := make([]stream, len(variants))
	opts := Options{Base: baseOpts(sys), Method: transient.RMATEX}
	opts.OnVariantSample = func(v int, tt float64, row []float64) {
		mu.Lock()
		s := &got[v]
		if s.busy {
			t.Errorf("variant %d: two rows at once", v)
		}
		s.busy = true
		mu.Unlock()
		defer func() { mu.Lock(); s.busy = false; mu.Unlock() }()
		if n := len(s.times); n > 0 && tt <= s.times[n-1] {
			t.Errorf("variant %d: row at t=%g after t=%g", v, tt, s.times[n-1])
		}
		s.times = append(s.times, tt)
		s.rows = append(s.rows, append([]float64(nil), row...))
	}
	res, err := Run(sys, variants, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SharedVariants != 3 || res.Stats.Lanes != 3 {
		t.Fatalf("%d lanes, %d shared variants: not a split group beside a direct lane", res.Stats.Lanes, res.Stats.SharedVariants)
	}
	for v, vr := range res.Variants {
		if !reflect.DeepEqual(got[v].times, vr.Times) || !reflect.DeepEqual(got[v].rows, vr.Probes) {
			t.Errorf("variant %q streamed %d rows that are not its %d result rows", vr.Name, len(got[v].times), len(vr.Times))
		}
	}
}

// TestSweepStatsAreTheLanesFolded: a sweep's Sim counters are the sum of
// its lanes' counters as each lane's integration reports them run solo,
// under one cache, one after another. The sweep is a split collinear group beside a directly
// integrated variant, so the shared supplies lane feeds three variants.
// (The durations' rule is superpose.TestRunStatsRule's.)
func TestSweepStatsAreTheLanesFolded(t *testing.T) {
	sys := ibmSystem(t, 0.2)
	variants := []Variant{
		{Name: "typ"},
		{Name: "half", Scale: 0.5},
		{Name: "double", Scale: 2.0},
		{Name: "hot", SourceScales: map[string]float64{"Iload1": 1.4}},
	}
	res, err := Run(sys, variants, Options{Base: baseOpts(sys), Method: transient.RMATEX})
	if err != nil {
		t.Fatal(err)
	}
	cvs, err := compile(sys, variants)
	if err != nil {
		t.Fatal(err)
	}
	lanes := planLanes(sys, cvs, planGroups(cvs, transient.RMATEX, false))
	if len(lanes) != 3 || res.Stats.Lanes != 3 {
		t.Fatalf("%d lanes planned, %d run; want 3", len(lanes), res.Stats.Lanes)
	}
	var want transient.Stats
	opts := baseOpts(sys)
	opts.Cache = sparse.NewCache(0)
	for _, ln := range lanes {
		opts.ActiveInputs = ln.active
		r, err := transient.Simulate(ln.sys, transient.RMATEX, opts)
		if err != nil {
			t.Fatal(err)
		}
		want.Add(&r.Stats)
	}
	got := res.Sim
	got.DCTime, got.FactorTime, got.TransientTime = 0, 0, 0
	if want.SolvePairs == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("sweep counters %+v, solo lanes summed %+v", got, want)
	}
}

// TestSweepCheckpointResume interrupts a sweep via a failing checkpoint
// hook, then resumes the interrupted variants from their snapshots and
// checks the stitched waveform matches an uninterrupted run.
func TestSweepCheckpointResume(t *testing.T) {
	sys := ibmSystem(t, 0.2)
	variants := cornerVariants()[:3]
	base := baseOpts(sys)
	base.CheckpointEvery = 8

	full, err := Run(sys, variants, Options{Base: base, Method: transient.RMATEX})
	if err != nil {
		t.Fatal(err)
	}

	// Keep each variant's first checkpoint and kill it at its second, so
	// every saved snapshot sits strictly before the end of the run.
	cps := map[int]transient.Checkpoint{}
	opts := Options{Base: base, Method: transient.RMATEX}
	var cpMu sync.Mutex
	opts.OnVariantCheckpoint = func(v int, cp transient.Checkpoint) error {
		cpMu.Lock()
		defer cpMu.Unlock()
		if _, ok := cps[v]; ok {
			return errInterrupt
		}
		cps[v] = cp
		return nil
	}
	if _, err := Run(sys, variants, opts); err == nil {
		t.Fatal("interrupted sweep unexpectedly succeeded")
	}
	if len(cps) == 0 {
		t.Skip("no checkpoints captured before interrupt")
	}

	resumed, err := Run(sys, variants, Options{Base: base, Method: transient.RMATEX, ResumeVariants: cps})
	if err != nil {
		t.Fatal(err)
	}
	for v := range variants {
		fr, rr := full.Variants[v], resumed.Variants[v]
		if len(rr.Times) == 0 {
			t.Fatalf("variant %d resumed with no samples", v)
		}
		// The resumed run only covers t > checkpoint; its tail must agree
		// with the uninterrupted run's.
		off := len(fr.Times) - len(rr.Times)
		if off < 0 {
			t.Fatalf("variant %d resumed with more samples (%d) than full run (%d)", v, len(rr.Times), len(fr.Times))
		}
		for i := range rr.Times {
			if fr.Times[off+i] != rr.Times[i] {
				t.Fatalf("variant %d grid mismatch at %d", v, i)
			}
			for k := range rr.Probes[i] {
				if d := math.Abs(fr.Probes[off+i][k] - rr.Probes[i][k]); d > 1e-8 {
					t.Fatalf("variant %d tail deviates by %g", v, d)
				}
			}
		}
	}
}

// TestSweepOnADeckThatSwitchesTreatment runs the corner sweep where every
// lane's ramps move from the augmented to the deviation treatment mid-run,
// each lane on its own observations: the lanes still reproduce their solo
// runs bit for bit over the shared cache, and a lane interrupted at any
// checkpoint — before or after its move — resumes to the same bits.
func TestSweepOnADeckThatSwitchesTreatment(t *testing.T) {
	sys := ibmSystemCNode(t, 1, 0.5e-12)
	variants := cornerVariants()[:3]
	base := baseOpts(sys)
	base.Tol = 0
	base.CheckpointEvery = 1
	cps := map[int][]transient.Checkpoint{}
	var mu sync.Mutex
	full, err := Run(sys, variants, Options{Base: base, Method: transient.RMATEX,
		OnVariantCheckpoint: func(v int, cp transient.Checkpoint) error {
			mu.Lock()
			defer mu.Unlock()
			cps[v] = append(cps[v], cp)
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	for v, va := range variants {
		solo := soloRun(t, sys, va, transient.RMATEX, base)
		if st := &solo.Stats; 2*st.LanczosSpots <= st.Spots() || st.DeviationSpots == st.Spots() {
			t.Fatalf("variant %q: %d of %d spots on deviation, %d on Lanczos: not a deck that switches",
				va.Name, st.DeviationSpots, st.Spots(), st.LanczosSpots)
		}
		if d := maxProbeDiff(t, solo, full.Variants[v]); d != 0 {
			t.Errorf("variant %q deviates from solo by %g, want bit-identical", va.Name, d)
		}
	}
	// Resume every lane together from its k-th checkpoint, for a k before
	// the move, one at it and one well after.
	sw := 0
	for sw < len(cps[0]) && !(cps[0][sw].DevPairs > 0 && cps[0][sw].DevPairs < cps[0][sw].AugPairs) {
		sw++
	}
	if sw == 0 || sw+8 >= len(cps[0]) {
		t.Fatalf("lane 0 moved at checkpoint %d of %d", sw, len(cps[0]))
	}
	for _, k := range []int{sw - 1, sw, sw + 8} {
		from := map[int]transient.Checkpoint{}
		for v := range variants {
			from[v] = cps[v][k]
		}
		resumed, err := Run(sys, variants, Options{Base: base, Method: transient.RMATEX, ResumeVariants: from})
		if err != nil {
			t.Fatal(err)
		}
		for v := range variants {
			fr, rr := full.Variants[v], resumed.Variants[v]
			off := len(fr.Times) - len(rr.Times)
			if off <= 0 || !reflect.DeepEqual(fr.Times[off:], rr.Times) || !reflect.DeepEqual(fr.Probes[off:], rr.Probes) {
				t.Errorf("variant %d resumed from checkpoint %d (t=%g): tail of %d samples not bit-identical to the uninterrupted lane",
					v, k, from[v].T, len(rr.Times))
			}
		}
	}
}

var errInterrupt = &interruptErr{}

type interruptErr struct{}

func (*interruptErr) Error() string { return "test interrupt" }

// TestSweepValidation covers spec errors.
func TestSweepValidation(t *testing.T) {
	sys := ibmSystem(t, 0.1)
	base := baseOpts(sys)
	cases := []struct {
		name string
		vs   []Variant
	}{
		{"empty", nil},
		{"dup names", []Variant{{Name: "a"}, {Name: "a"}}},
		{"unknown scale target", []Variant{{SourceScales: map[string]float64{"nope": 2}}}},
		{"unknown override target", []Variant{{Overrides: map[string]Override{"nope": {Type: "dc"}}}}},
		{"bad waveform type", []Variant{{Overrides: map[string]Override{"Iload1": {Type: "sine"}}}}},
	}
	for _, tc := range cases {
		if _, err := Run(sys, tc.vs, Options{Base: base, Method: transient.RMATEX}); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	bad := base
	bad.OnSample = func(float64, []float64) {}
	if _, err := Run(sys, []Variant{{}}, Options{Base: bad, Method: transient.RMATEX}); err == nil {
		t.Error("engine-owned Base.OnSample accepted")
	}
	// A window or a step no lane could run under is refused once, before
	// any lane starts — not as the first of the lanes' own failures
	// ("sweep: lane i: …").
	noWindow := base
	noWindow.Tstop = 0
	for _, c := range []struct {
		name   string
		base   transient.Options
		method transient.Method
		want   string
	}{
		{"Tstop 0", noWindow, transient.RMATEX, "needs positive Tstop"},
		{"TRFixed without Step", base, transient.TRFixed, "needs positive Step"},
	} {
		_, err := Run(sys, []Variant{{}, {Scale: 2}}, Options{Base: c.base, Method: c.method})
		if err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "lane") {
			t.Errorf("%s: %v, want %q before any lane", c.name, err, c.want)
		}
	}
}
