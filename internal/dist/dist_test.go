package dist

import (
	"math"
	"reflect"
	"testing"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/krylov"
	"github.com/matex-sim/matex/internal/pdn"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/transient"
	"github.com/matex-sim/matex/internal/waveform"
)

// testSystem builds an ibmpg1t-scale grid, like the root benchmarks.
func testSystem(t *testing.T, scale float64) *circuit.System {
	return testSystemCNode(t, scale, 0)
}

// testSystemCNode sets every node capacitor to cnode farads (0: the stock
// 10 fF). At 0.5 pF R-MATEX moves its ramps to the deviation treatment.
func testSystemCNode(t *testing.T, scale, cnode float64) *circuit.System {
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
	// Every subtask factors views of these matrices; catch a bad stamp here
	// rather than as a downstream solver failure.
	if err := sparse.CheckCSC(sys.C); err != nil {
		t.Fatalf("stamped C violates CSC invariants: %v", err)
	}
	if err := sparse.CheckCSC(sys.G); err != nil {
		t.Fatalf("stamped G violates CSC invariants: %v", err)
	}
	return sys
}

func testProbes(sys *circuit.System) []int {
	return []int{0, sys.NumNodes / 3, sys.NumNodes / 2, sys.NumNodes - 1}
}

// maxDeviation compares two probe traces sample by sample; the time grids
// must match exactly.
func maxDeviation(t *testing.T, a, b *transient.Result, nProbes int) float64 {
	t.Helper()
	if len(a.Times) != len(b.Times) {
		t.Fatalf("time grids differ: %d vs %d points", len(a.Times), len(b.Times))
	}
	var maxDiff float64
	for i := range a.Times {
		if a.Times[i] != b.Times[i] {
			t.Fatalf("time grids differ at %d: %g vs %g", i, a.Times[i], b.Times[i])
		}
		for k := 0; k < nProbes; k++ {
			if d := math.Abs(a.Probes[i][k] - b.Probes[i][k]); d > maxDiff {
				maxDiff = d
			}
		}
	}
	return maxDiff
}

// TestDistPartition checks the decomposition against the bump features the
// pdn generator stamps.
func TestDistPartition(t *testing.T) {
	sys := testSystem(t, 0.25)
	tasks := Partition(sys, 10e-9)
	if len(tasks) < 2 {
		t.Fatalf("expected several bump-feature groups, got %d", len(tasks))
	}
	seen := make(map[int]bool)
	total := 0
	for g, task := range tasks {
		if task.GroupID != g {
			t.Errorf("task %d has GroupID %d", g, task.GroupID)
		}
		if len(task.InputIdx) == 0 {
			t.Errorf("group %d is empty", g)
		}
		for _, k := range task.InputIdx {
			if seen[k] {
				t.Errorf("input %d assigned to two groups", k)
			}
			seen[k] = true
			if sys.Inputs[k].Supply {
				t.Errorf("supply input %d (%s) in a transient group", k, sys.Inputs[k].Name)
			}
			total++
		}
	}
	want := 0
	for i := range sys.Inputs {
		if !sys.Inputs[i].Supply {
			want++
		}
	}
	if total != want {
		t.Errorf("partition covers %d of %d time-varying inputs", total, want)
	}
}

// TestDistSuperposition is the paper's correctness claim: the superposed
// distributed R-MATEX run matches a plain R-MATEX run of the full system on
// the same probes and grid.
func TestDistSuperposition(t *testing.T) {
	sys := testSystem(t, 0.25)
	probes := testProbes(sys)
	opts := transient.Options{Tstop: 10e-9, Tol: 1e-8, Gamma: 1e-10, Probes: probes}

	ref, err := transient.Simulate(sys, transient.RMATEX, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := Run(NewSystem(sys), transient.RMATEX, Config{Base: transient.Options{Tstop: 10e-9, Tol: 1e-8, Gamma: 1e-10, Probes: probes}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Groups < 2 {
		t.Fatalf("degenerate decomposition: %d groups", rep.Groups)
	}
	if len(rep.TaskStats) != rep.Tasks || len(rep.PerTask) != rep.Tasks {
		t.Fatalf("TaskStats has %d entries, PerTask %d, for %d tasks", len(rep.TaskStats), len(rep.PerTask), rep.Tasks)
	}
	if d := maxDeviation(t, got, ref, len(probes)); d > 1e-6 {
		t.Errorf("superposition deviates %.3g V from the plain run (budget 1e-6)", d)
	}
	// The final full state superposes too.
	if len(got.Final) != sys.N {
		t.Fatalf("missing final state")
	}
	var dFinal float64
	for i := range got.Final {
		if d := math.Abs(got.Final[i] - ref.Final[i]); d > dFinal {
			dFinal = d
		}
	}
	if dFinal > 1e-6 {
		t.Errorf("final state deviates %.3g V", dFinal)
	}
}

// TestDistSuperpositionWhereRampsSwitchTreatment repeats the claim on the
// deck whose mesh time constants reach the segment scale: the plain run and
// every zero-state task choose their ramps' treatment from their own counts,
// tasks at different spots than the plain run, and must still superpose to
// it. The default tolerance, a two-node plan and a task per group.
func TestDistSuperpositionWhereRampsSwitchTreatment(t *testing.T) {
	sys := testSystemCNode(t, 1, 0.5e-12)
	opts := transient.Options{Tstop: 10e-9, Probes: testProbes(sys)}
	ref, err := transient.Simulate(sys, transient.RMATEX, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := &ref.Stats; 2*st.LanczosSpots <= st.Spots() || st.DeviationSpots == st.Spots() {
		t.Fatalf("plain run: %d of %d spots on deviation, %d on Lanczos: not a deck that switches", st.DeviationSpots, st.Spots(), st.LanczosSpots)
	}
	for _, workers := range []int{2, 64} {
		got, rep, err := Run(NewSystem(sys), transient.RMATEX, Config{Base: opts, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.DeviationSpots == 0 || got.Stats.InputPairs == 0 {
			t.Errorf("workers=%d: tasks report %d deviation spots, %d input pairs", workers, got.Stats.DeviationSpots, got.Stats.InputPairs)
		}
		if d := maxDeviation(t, got, ref, len(opts.Probes)); d > 1e-6 {
			t.Errorf("workers=%d (%d tasks): superposition deviates %.3g V from the plain run (budget 1e-6)", workers, rep.Tasks, d)
		}
	}
}

// TestDistSuperpositionIMATEX covers the second spectral-transform path
// (shared G factorization, deviation treatment throughout).
func TestDistSuperpositionIMATEX(t *testing.T) {
	sys := testSystem(t, 0.2)
	probes := testProbes(sys)
	ref, err := transient.Simulate(sys, transient.IMATEX, transient.Options{
		Tstop: 10e-9, Tol: 1e-8, Probes: probes,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Run(NewSystem(sys), transient.IMATEX, Config{Base: transient.Options{Tstop: 10e-9, Tol: 1e-8, Probes: probes}})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDeviation(t, got, ref, len(probes)); d > 1e-6 {
		t.Errorf("I-MATEX superposition deviates %.3g V (budget 1e-6)", d)
	}
}

// TestDistNoTransientSources: a purely static system decomposes into zero
// groups and returns the DC baseline on the [0, tstop] grid.
func TestDistNoTransientSources(t *testing.T) {
	ckt := circuit.New("static")
	if err := ckt.AddR("r1", "a", "0", 100); err != nil {
		t.Fatal(err)
	}
	if err := ckt.AddC("c1", "a", "0", 1e-12); err != nil {
		t.Fatal(err)
	}
	ckt.AddI("i1", "a", "0", waveform.DC(1e-3))
	sys, err := circuit.Stamp(ckt, circuit.StampOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := Run(NewSystem(sys), transient.RMATEX, Config{Base: transient.Options{Tstop: 1e-9, Probes: []int{0}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Groups != 0 {
		t.Fatalf("static system produced %d groups", rep.Groups)
	}
	if len(res.Times) == 0 {
		t.Fatal("empty trace")
	}
	want := res.Probes[0][0]
	for i := range res.Times {
		if res.Probes[i][0] != want {
			t.Fatalf("static response drifts at t=%g", res.Times[i])
		}
	}
}

// TestDistFixedStepInterpolatedOntoGTS covers the misaligned-grid path of
// the superposition: fixed-step subtasks emit their own step grid (including the
// shortened final step landing exactly on Tstop), which Run linearly
// interpolates onto the GTS output grid. The distributed result must match
// an undistributed fixed-step reference interpolated the same way — and the
// superposed Final states must agree at Tstop, which the old round-to-
// nearest step count broke for non-divisible Tstop/Step.
func TestDistFixedStepInterpolatedOntoGTS(t *testing.T) {
	sys := testSystem(t, 0.2)
	probes := testProbes(sys)
	const tstop, step = 10e-9, 0.7e-9 // 10/0.7 is not an integer

	ref, err := transient.Simulate(sys, transient.TRFixed, transient.Options{
		Tstop: tstop, Step: step, Probes: probes,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := Run(NewSystem(sys), transient.TRFixed, Config{Base: transient.Options{Tstop: tstop, Step: step, Probes: probes}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Groups < 2 {
		t.Fatalf("degenerate decomposition: %d groups", rep.Groups)
	}
	// The GTS grid does not coincide with the 0.7ns step grid, so this run
	// exercised the interpolation branch; compare against the reference
	// interpolated onto the same GTS times.
	var maxDiff float64
	for i, tt := range got.Times {
		for k := range probes {
			want := ref.InterpProbe(tt, k)
			if d := math.Abs(got.Probes[i][k] - want); d > maxDiff {
				maxDiff = d
			}
		}
	}
	if maxDiff > 1e-6 {
		t.Errorf("interpolated fixed-step superposition deviates %.3g V (budget 1e-6)", maxDiff)
	}
	// Superposed Final is the state at Tstop exactly.
	var dFinal float64
	for i := range got.Final {
		if d := math.Abs(got.Final[i] - ref.Final[i]); d > dFinal {
			dFinal = d
		}
	}
	if dFinal > 1e-6 {
		t.Errorf("final state deviates %.3g V at Tstop", dFinal)
	}
}

// TestDistAdaptiveTRUnsetTolIsTheLTEDefault pins a behaviour change of the
// Config{Base} shape: Config no longer fills Tol with the MATEX budget, so an
// unset tolerance reaches the node as zero and adaptive TR applies its own
// LTE default, 1e-4, as an undistributed run does. (Config.withDefaults made
// it an explicit 1e-6: three times the steps for the same command line.)
func TestDistAdaptiveTRUnsetTolIsTheLTEDefault(t *testing.T) {
	sys := testSystem(t, 0.2)
	probes := testProbes(sys)
	run := func(tol float64) *transient.Result {
		res, _, err := Run(NewSystem(sys), transient.TRAdaptive, Config{Base: transient.Options{Tstop: 10e-9, Tol: tol, Probes: probes}, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	unset, loose, tight := run(0), run(1e-4), run(1e-6)
	if unset.Stats.Steps != loose.Stats.Steps || !reflect.DeepEqual(unset.Probes, loose.Probes) {
		t.Errorf("unset Tol took %d steps, an explicit 1e-4 %d: not the LTE default", unset.Stats.Steps, loose.Stats.Steps)
	}
	if tight.Stats.Steps <= unset.Stats.Steps {
		t.Errorf("explicit 1e-6 took %d steps, unset %d: the explicit tolerance was not honoured", tight.Stats.Steps, unset.Stats.Steps)
	}
}

// TestDistLocalPoolSharesFactorizations: even without a caller cache, one
// in-process Run factorizes G and (C+γG) exactly once across all subtasks.
func TestDistLocalPoolSharesFactorizations(t *testing.T) {
	sys := testSystem(t, 0.2)
	res, rep, err := Run(NewSystem(sys), transient.RMATEX, Config{Base: transient.Options{Tstop: 10e-9, Tol: 1e-7, Gamma: 1e-10, Probes: testProbes(sys)}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Groups < 2 {
		t.Fatalf("degenerate decomposition: %d groups", rep.Groups)
	}
	// One G (DC) + one C+γG, regardless of group count.
	if res.Stats.Factorizations != 2 {
		t.Errorf("in-process run factorized %d times for %d groups, want 2",
			res.Stats.Factorizations, rep.Groups)
	}
	if res.Stats.CacheHits == 0 {
		t.Error("subtasks recorded no cache hits on the shared pool cache")
	}
}

// TestDistKrylovLanczos: the Krylov method travels with the request, the
// zero-state subtasks take the fast path on their quiet segments, and the
// superposed waveform matches the pinned-Arnoldi distributed run to the
// solver tolerance class.
func TestDistKrylovLanczos(t *testing.T) {
	sys := testSystem(t, 0.25)
	probes := testProbes(sys)
	ref, _, err := Run(NewSystem(sys), transient.RMATEX, Config{Base: transient.Options{Tstop: 10e-9, Tol: 1e-9, Probes: probes, Krylov: krylov.MethodArnoldi}})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.LanczosSpots != 0 {
		t.Fatalf("arnoldi-pinned run aggregated %d Lanczos spots", ref.Stats.LanczosSpots)
	}
	res, _, err := Run(NewSystem(sys), transient.RMATEX, Config{Base: transient.Options{Tstop: 10e-9, Tol: 1e-9, Probes: probes, Krylov: krylov.MethodAuto}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.LanczosSpots == 0 {
		t.Error("distributed run aggregated no Lanczos spots (zero-state subtasks are mostly flat segments)")
	}
	var scale float64 = 1
	for i := range ref.Times {
		for k := range probes {
			if a := math.Abs(ref.Probes[i][k]); a > scale {
				scale = a
			}
		}
	}
	if d := maxDeviation(t, res, ref, len(probes)); d > 1e-8*scale {
		t.Errorf("lanczos vs arnoldi distributed waveforms differ by %g (scale %g)", d, scale)
	}
}
