package pdn

import (
	"math"
	"testing"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/transient"
	"github.com/matex-sim/matex/internal/waveform"
)

func TestGridBuildBasics(t *testing.T) {
	spec := GridSpec{
		Name: "test", NX: 8, NY: 8, RSeg: 1, CNode: 1e-14, VDD: 1.8,
		PadPitch: 4, NumLoads: 10, NumGroups: 3, IPeak: 1e-3, Tstop: 10e-9, Seed: 1,
	}
	c, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Capacitors); got != 64 {
		t.Errorf("caps = %d, want 64", got)
	}
	// 2 * 8 * 7 horizontal+vertical segments.
	if got := len(c.Resistors); got != 112 {
		t.Errorf("resistors = %d, want 112", got)
	}
	if got := len(c.ISources); got != 10 {
		t.Errorf("loads = %d, want 10", got)
	}
	if len(c.VSources) == 0 {
		t.Fatal("no pads generated")
	}
	// All loads share at most NumGroups bump shapes.
	feats := make(map[waveform.BumpFeature]bool)
	for _, src := range c.ISources {
		f, ok := waveform.FeatureOf(src.Wave)
		if !ok {
			t.Fatalf("load %s is not a pulse", src.Name)
		}
		feats[f] = true
	}
	if len(feats) > 3 {
		t.Errorf("distinct features = %d, want <= 3", len(feats))
	}
}

func TestGridDCNearVDD(t *testing.T) {
	spec := GridSpec{
		Name: "dc", NX: 10, NY: 10, RSeg: 0.5, CNode: 1e-14, VDD: 1.8,
		PadPitch: 5, NumLoads: 5, NumGroups: 2, IPeak: 1e-3, Tstop: 10e-9, Seed: 2,
	}
	c, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := circuit.Stamp(c, circuit.StampOptions{CollapseSupplies: true})
	if err != nil {
		t.Fatal(err)
	}
	x, _, err := transient.DC(sys, transient.Options{}, &transient.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	// At t=0 the pulse loads are off, so every node sits at VDD.
	for _, name := range sys.NodeNames() {
		v, err := sys.Voltage(x, name)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v-1.8) > 1e-9 {
			t.Fatalf("DC voltage at %s = %v, want 1.8", name, v)
		}
	}
}

func TestGridWithPackageRL(t *testing.T) {
	spec := GridSpec{
		Name: "pkg", NX: 6, NY: 6, RSeg: 1, CNode: 1e-14, VDD: 1.0,
		PadPitch: 5, PkgR: 0.01, PkgL: 1e-12,
		NumLoads: 3, NumGroups: 2, IPeak: 1e-3, Tstop: 10e-9, Seed: 3,
	}
	c, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Inductors) == 0 {
		t.Fatal("package inductors missing")
	}
	sys, err := circuit.Stamp(c, circuit.StampOptions{CollapseSupplies: true})
	if err != nil {
		t.Fatal(err)
	}
	x, _, err := transient.DC(sys, transient.Options{}, &transient.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := sys.Voltage(x, NodeName(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1.0) > 1e-9 {
		t.Errorf("pad-adjacent DC voltage = %v, want 1.0 (inductor shorts in DC)", v)
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := (GridSpec{NX: 1, NY: 5}).Build(); err == nil {
		t.Error("1-wide grid accepted")
	}
	if _, err := (GridSpec{NX: 4, NY: 4}).Build(); err == nil {
		t.Error("zero RSeg accepted")
	}
}

func TestLadderAnalyticDC(t *testing.T) {
	// Single-stage ladder with DC drive I: V = -I*R at the driven node
	// (current source convention draws out of the node).
	c, err := Ladder(1, 100, 1e-12, waveform.DC(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := circuit.Stamp(c, circuit.StampOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x, _, err := transient.DC(sys, transient.Options{Ordering: sparse.OrderNatural}, &transient.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := sys.Voltage(x, "n1")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v+0.1) > 1e-12 {
		t.Errorf("V(n1) = %v, want -0.1", v)
	}
}

func TestLadderValidation(t *testing.T) {
	if _, err := Ladder(0, 1, 1, waveform.DC(0)); err == nil {
		t.Error("zero-stage ladder accepted")
	}
}

func TestIBMCases(t *testing.T) {
	for _, name := range IBMSuite() {
		spec, err := IBMCase(name, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		c, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.NumElements() == 0 {
			t.Fatalf("%s: empty circuit", name)
		}
		sys, err := circuit.Stamp(c, circuit.StampOptions{CollapseSupplies: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, _, err := transient.DC(sys, transient.Options{}, &transient.Stats{}); err != nil {
			t.Fatalf("%s: DC failed: %v", name, err)
		}
	}
	if _, err := IBMCase("nope", 1); err == nil {
		t.Error("unknown case accepted")
	}
}

func TestIBMCaseDeterministic(t *testing.T) {
	s1, _ := IBMCase("ibmpg1t", 0.5)
	s2, _ := IBMCase("ibmpg1t", 0.5)
	c1, err := s1.Build()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(c1.ISources) != len(c2.ISources) {
		t.Fatal("load counts differ across builds")
	}
	for i := range c1.ISources {
		if c1.ISources[i].Pos != c2.ISources[i].Pos {
			t.Fatal("load placement not deterministic")
		}
	}
}

func TestStiffMeshStiffnessIncreasesWithSpread(t *testing.T) {
	var prev float64
	for _, spread := range []float64{1e2, 1e6} {
		spec := StiffMeshSpec{NX: 6, NY: 6, RSeg: 1, Spread: spread}
		c, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		sys, err := circuit.Stamp(c, circuit.StampOptions{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := Stiffness(sys, 300)
		if err != nil {
			t.Fatal(err)
		}
		if st <= prev {
			t.Fatalf("stiffness %g did not grow from %g at spread %g", st, prev, spread)
		}
		// Stiffness should be within a couple orders of the spread.
		if st < spread/100 || st > spread*100 {
			t.Errorf("stiffness %g far from spread %g", st, spread)
		}
		prev = st
	}
}

func TestStiffMeshValidation(t *testing.T) {
	if _, err := (StiffMeshSpec{NX: 1, NY: 2, Spread: 10}).Build(); err == nil {
		t.Error("tiny mesh accepted")
	}
	if _, err := (StiffMeshSpec{NX: 4, NY: 4, Spread: 0.5}).Build(); err == nil {
		t.Error("spread < 1 accepted")
	}
}

func TestTable1Cases(t *testing.T) {
	cases := Table1Cases()
	if len(cases) != 3 {
		t.Fatalf("Table1Cases = %d, want 3", len(cases))
	}
	for _, spec := range cases {
		c, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		if len(c.ISources) != 1 {
			t.Error("table 1 mesh should have exactly one drive")
		}
	}
}
