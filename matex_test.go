package matex

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestFacadeEndToEnd drives the whole public API surface: netlist parsing,
// stamping, every integrator, the distributed runner, and netlist writing.
func TestFacadeEndToEnd(t *testing.T) {
	spec, err := IBMCase("ibmpg1t", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Stamp(ckt, StampOptions{CollapseSupplies: true})
	if err != nil {
		t.Fatal(err)
	}
	probes := []int{0, sys.NumNodes - 1}

	ref, err := Simulate(sys, TRFixed, Options{Tstop: 10e-9, Step: 5e-12, Probes: probes})
	if err != nil {
		t.Fatal(err)
	}
	// MEXP is excluded here deliberately: the paper itself never runs the
	// standard subspace on the IBM grids (h·‖A‖ ~ 1e5 there; Table 2
	// compares only TR(adpt), I-MATEX and R-MATEX). It is covered on its
	// own domain in TestFacadeBuilders and the Table 1 harness.
	for _, m := range []Method{TRFixed, TRAdaptive, IMATEX, RMATEX} {
		opts := Options{Tstop: 10e-9, Step: 10e-12, Probes: probes, Tol: 1e-7}
		if m == TRAdaptive {
			opts.Tol = 1e-4
		}
		res, err := Simulate(sys, m, opts)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		var maxErr float64
		for i, tt := range res.Times {
			for k := range probes {
				if d := math.Abs(res.Probes[i][k] - ref.InterpProbe(tt, k)); d > maxErr {
					maxErr = d
				}
			}
		}
		if maxErr > 2e-3 {
			t.Errorf("%v deviates %g from the TR reference", m, maxErr)
		}
	}

	dres, rep, err := SimulateDistributed(sys, RMATEX, DistConfig{Base: Options{Tstop: 10e-9, Tol: 1e-7, Probes: probes}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Groups < 2 || len(dres.Times) == 0 {
		t.Fatalf("degenerate distributed run: %d groups", rep.Groups)
	}
}

func TestFacadeNetlistRoundTrip(t *testing.T) {
	src := `* facade deck
R1 a b 1k
C1 b 0 1p
V1 a 0 1.8
i1 b 0 PULSE(0 1m 1n 0.1n 0.1n 2n 0)
.tran 10p 10n
.print tran v(b)
.end
`
	deck, err := ParseNetlist(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNetlist(&buf, deck); err != nil {
		t.Fatal(err)
	}
	deck2, err := ParseNetlist(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(deck2.Circuit.Resistors) != 1 || len(deck2.Prints) != 1 {
		t.Fatal("round trip lost elements")
	}
	sys, err := Stamp(deck2.Circuit, StampOptions{CollapseSupplies: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(sys, RMATEX, Options{Tstop: 10e-9, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) == 0 {
		t.Fatal("empty result")
	}
}

func TestFacadeBuilders(t *testing.T) {
	ckt := NewCircuit("builders")
	if err := ckt.AddR("r1", "n", "0", 50); err != nil {
		t.Fatal(err)
	}
	if err := ckt.AddC("c1", "n", "0", 1e-12); err != nil {
		t.Fatal(err)
	}
	pw, err := NewPWL([]float64{0, 1e-9, 2e-9}, []float64{0, 1e-3, 0})
	if err != nil {
		t.Fatal(err)
	}
	ckt.AddI("i1", "n", "0", pw)
	sys, err := Stamp(ckt, StampOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{RMATEX, MEXP} {
		res, err := Simulate(sys, m, Options{Tstop: 5e-9, Tol: 1e-9, Probes: []int{0}})
		if err != nil {
			t.Fatal(err)
		}
		// Peak drop roughly -I*R after the ramp (tau = 50 ps << 1 ns ramp).
		var minV float64
		for i := range res.Times {
			if v := res.Probes[i][0]; v < minV {
				minV = v
			}
		}
		if math.Abs(minV-(-0.05)) > 0.005 {
			t.Errorf("%v: peak drop %v, want about -0.05", m, minV)
		}
	}

	lad, err := Ladder(3, 100, 1e-12, DC(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	lsys, err := Stamp(lad, StampOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Stiffness(lsys, 100); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeFactorCache drives the exported cache and solver-configuration
// surface: a shared FactorCache across plain and distributed runs, the
// ordering constants, and the stats counters.
func TestFacadeFactorCache(t *testing.T) {
	spec, err := IBMCase("ibmpg1t", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Stamp(ckt, StampOptions{CollapseSupplies: true})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewFactorCache(64 << 20)
	opts := Options{
		Tstop: 10e-9, Tol: 1e-7, Probes: []int{0},
		Ordering: OrderDefault.Resolve(), Cache: cache,
	}
	if _, err := Simulate(sys, RMATEX, opts); err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(sys, RMATEX, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Factorizations != 0 || res.Stats.CacheHits == 0 {
		t.Errorf("repeat run: %d factorizations, %d hits — want 0 and >0",
			res.Stats.Factorizations, res.Stats.CacheHits)
	}
	// The distributed scheduler shares the same cache: its DC solve and
	// subtasks hit the entries the plain runs created (same G, same C+γG) —
	// and, leaving Ordering unset where the plain runs named the default's
	// resolution, shows both spell one cache key.
	dres, _, err := SimulateDistributed(sys, RMATEX, DistConfig{
		Base: Options{Tstop: 10e-9, Tol: 1e-7, Probes: []int{0}, Cache: cache},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dres.Stats.Factorizations != 0 {
		t.Errorf("distributed run with warm cache factorized %d times, want 0",
			dres.Stats.Factorizations)
	}
	if st := cache.Stats(); st.Entries == 0 || st.Hits == 0 {
		t.Errorf("cache stats empty: %+v", st)
	}
	// Every exported ordering is selectable through the facade: each
	// explicit choice other than the default's resolution factors under its
	// own cache key, and the waveform does not depend on the choice.
	for _, o := range []Ordering{OrderNatural, OrderMinDegree, OrderND} {
		opts.Ordering = o
		got, err := Simulate(sys, RMATEX, opts)
		if err != nil {
			t.Fatalf("ordering %v: %v", o, err)
		}
		if fresh := got.Stats.Factorizations > 0; fresh == (o == OrderDefault.Resolve()) {
			t.Errorf("ordering %v: %d factorizations on the default's warm cache", o, got.Stats.Factorizations)
		}
		for i := range got.Probes {
			if d := math.Abs(got.Probes[i][0] - res.Probes[i][0]); d > 1e-9 {
				t.Fatalf("ordering %v: sample %d deviates %g from the default ordering's", o, i, d)
			}
		}
	}
}
