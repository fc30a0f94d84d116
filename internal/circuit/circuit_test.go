package circuit

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/waveform"
)

// dcPoint solves G·x = B·u(0), the DC operating point the stamp encodes
// (capacitors open, inductors shorted).
func dcPoint(s *System) ([]float64, error) {
	f, _, err := sparse.NewCache(0).Factor(s.G, sparse.OrderNatural)
	if err != nil {
		return nil, err
	}
	b := make([]float64, s.N)
	s.EvalB(0, b, nil)
	x := make([]float64, s.N)
	f.SolveWith(x, b, make([]float64, s.N))
	return x, nil
}

func TestResistorDividerDC(t *testing.T) {
	// 2V supply across R1=1k, R2=1k: midpoint at 1V.
	for _, collapse := range []bool{false, true} {
		c := New("divider")
		c.AddV("vdd", "in", "0", waveform.DC(2))
		if err := c.AddR("r1", "in", "mid", 1000); err != nil {
			t.Fatal(err)
		}
		if err := c.AddR("r2", "mid", "0", 1000); err != nil {
			t.Fatal(err)
		}
		sys, err := Stamp(c, StampOptions{CollapseSupplies: collapse})
		if err != nil {
			t.Fatal(err)
		}
		x, err := dcPoint(sys)
		if err != nil {
			t.Fatal(err)
		}
		vm, err := sys.Voltage(x, "mid")
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(vm-1) > 1e-12 {
			t.Errorf("collapse=%v: Vmid = %v, want 1", collapse, vm)
		}
		vin, err := sys.Voltage(x, "in")
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(vin-2) > 1e-12 {
			t.Errorf("collapse=%v: Vin = %v, want 2", collapse, vin)
		}
		if collapse && sys.NumNodes != 1 {
			t.Errorf("collapsed system should have 1 free node, got %d", sys.NumNodes)
		}
	}
}

func TestCollapseKeepsGSymmetric(t *testing.T) {
	c := New("grid")
	c.AddV("vdd", "p", "0", waveform.DC(1.8))
	for _, e := range []struct {
		a, b string
		r    float64
	}{{"p", "n1", 1}, {"n1", "n2", 2}, {"n2", "0", 3}, {"n1", "0", 4}} {
		if err := c.AddR("r"+e.a+e.b, e.a, e.b, e.r); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddC("c1", "n1", "0", 1e-12); err != nil {
		t.Fatal(err)
	}
	sys, err := Stamp(c, StampOptions{CollapseSupplies: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sys.G.IsSymmetric(0) {
		t.Error("collapsed G not symmetric")
	}
	if _, err := sparse.FactorLDLT(sys.G, sparse.OrderNatural); err != nil {
		t.Errorf("collapsed G should be SPD-factorable: %v", err)
	}
}

func TestCurrentSourceSign(t *testing.T) {
	// 1A source from ground into node through the source convention:
	// I(pos=n, neg=0) draws current out of n, so V(n) = -R*I with R to ground.
	c := New("isrc")
	if err := c.AddR("r", "n", "0", 5); err != nil {
		t.Fatal(err)
	}
	c.AddI("i1", "n", "0", waveform.DC(1))
	sys, err := Stamp(c, StampOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x, err := dcPoint(sys)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := sys.Voltage(x, "n")
	if math.Abs(v+5) > 1e-12 {
		t.Errorf("V(n) = %v, want -5 (current drawn out of node)", v)
	}
}

func TestInductorDCShort(t *testing.T) {
	// V -- R -- L -- ground: in DC the inductor is a short, node between R
	// and L sits at 0V and the inductor current is V/R.
	c := New("rl")
	c.AddV("v1", "a", "0", waveform.DC(10))
	if err := c.AddR("r1", "a", "b", 2); err != nil {
		t.Fatal(err)
	}
	if err := c.AddL("l1", "b", "0", 1e-9); err != nil {
		t.Fatal(err)
	}
	sys, err := Stamp(c, StampOptions{CollapseSupplies: true})
	if err != nil {
		t.Fatal(err)
	}
	x, err := dcPoint(sys)
	if err != nil {
		t.Fatal(err)
	}
	vb, _ := sys.Voltage(x, "b")
	if math.Abs(vb) > 1e-12 {
		t.Errorf("V(b) = %v, want 0", vb)
	}
	// Inductor current is the unknown after the node voltages.
	il := x[sys.NumNodes]
	if math.Abs(il-5) > 1e-9 {
		t.Errorf("I(l1) = %v, want 5", il)
	}
}

func TestConflictingSupplyPins(t *testing.T) {
	c := New("conflict")
	c.AddV("v1", "n", "0", waveform.DC(1))
	c.AddV("v2", "n", "0", waveform.DC(2))
	if _, err := Stamp(c, StampOptions{CollapseSupplies: true}); err == nil {
		t.Fatal("expected error for conflicting pinned voltages")
	}
}

func TestElementValidation(t *testing.T) {
	c := New("bad")
	if err := c.AddR("r", "a", "b", 0); err == nil {
		t.Error("zero resistance accepted")
	}
	if err := c.AddC("c", "a", "b", -1); err == nil {
		t.Error("negative capacitance accepted")
	}
	if err := c.AddL("l", "a", "b", 0); err == nil {
		t.Error("zero inductance accepted")
	}
}

func TestEvalBActiveMask(t *testing.T) {
	c := New("two loads")
	if err := c.AddR("r", "n", "0", 1); err != nil {
		t.Fatal(err)
	}
	c.AddI("i1", "n", "0", waveform.DC(1))
	c.AddI("i2", "n", "0", waveform.DC(10))
	sys, err := Stamp(c, StampOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, sys.N)
	sys.EvalB(0, b, nil)
	if math.Abs(b[0]+11) > 1e-12 {
		t.Errorf("full EvalB = %v, want -11", b[0])
	}
	mask := make([]bool, len(sys.Inputs))
	for k := range sys.Inputs {
		if sys.Inputs[k].Name == "i2" {
			mask[k] = true
		}
	}
	sys.EvalB(0, b, mask)
	if math.Abs(b[0]+10) > 1e-12 {
		t.Errorf("masked EvalB = %v, want -10", b[0])
	}
}

func TestVoltageUnknownNode(t *testing.T) {
	c := New("x")
	if err := c.AddR("r", "a", "0", 1); err != nil {
		t.Fatal(err)
	}
	sys, err := Stamp(c, StampOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Voltage(nil, "ghost"); err == nil {
		t.Error("expected error for unknown node")
	}
	if v, err := sys.Voltage(nil, "0"); err != nil || v != 0 {
		t.Errorf("ground voltage = %v, %v", v, err)
	}
}

func TestGTSFromInputs(t *testing.T) {
	c := New("gts")
	if err := c.AddR("r", "n", "0", 1); err != nil {
		t.Fatal(err)
	}
	c.AddI("i1", "n", "0", &waveform.Pulse{V2: 1, Delay: 1e-9, Rise: 1e-10, Width: 1e-10, Fall: 1e-10})
	sys, err := Stamp(c, StampOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gts := sys.GTS(10e-9)
	// 0, 1n, 1.1n, 1.2n, 1.3n, 10n
	if len(gts) != 6 {
		t.Fatalf("GTS = %v", gts)
	}
}

func TestGminFloatingNodeRescue(t *testing.T) {
	// A node connected only through a capacitor has no DC path; Gmin fixes it.
	c := New("float")
	if err := c.AddC("c1", "float", "0", 1e-12); err != nil {
		t.Fatal(err)
	}
	if err := c.AddR("r1", "n", "0", 1); err != nil {
		t.Fatal(err)
	}
	c.AddI("i1", "n", "0", waveform.DC(1))
	if _, err := Stamp(c, StampOptions{}); err != nil {
		t.Fatal(err)
	}
	sysNoGmin, _ := Stamp(c, StampOptions{})
	if _, err := dcPoint(sysNoGmin); err == nil {
		t.Log("DC on floating node unexpectedly succeeded (dense zero column may still pivot)")
	}
	sys, _ := Stamp(c, StampOptions{Gmin: 1e-12})
	if _, err := dcPoint(sys); err != nil {
		t.Errorf("Gmin-stabilized DC failed: %v", err)
	}
}

func TestNodeNames(t *testing.T) {
	c := New("names")
	if err := c.AddR("r1", "a", "b", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddR("r2", "b", "0", 1); err != nil {
		t.Fatal(err)
	}
	sys, err := Stamp(c, StampOptions{})
	if err != nil {
		t.Fatal(err)
	}
	names := sys.NodeNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("NodeNames = %v", names)
	}
}

func TestTimeVaryingVSourceKeepsMNARow(t *testing.T) {
	// A pulsed V source must not be collapsed even with CollapseSupplies on.
	c := New("pulse-v")
	c.AddV("vp", "n", "0", &waveform.Pulse{V1: 0, V2: 1, Delay: 1e-9, Rise: 1e-10, Width: 1e-9, Fall: 1e-10})
	if err := c.AddR("r", "n", "0", 100); err != nil {
		t.Fatal(err)
	}
	sys, err := Stamp(c, StampOptions{CollapseSupplies: true})
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumNodes != 1 || sys.N != 2 {
		t.Fatalf("NumNodes=%d N=%d, want 1 node + 1 branch current", sys.NumNodes, sys.N)
	}
	x, err := dcPoint(sys)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := sys.Voltage(x, "n")
	if math.Abs(v) > 1e-12 {
		t.Errorf("V(n) at t=0 = %v, want 0 (pulse not started)", v)
	}
}

// The free nodes are numbered in first-use order over every terminal,
// resistors first: a random circuit with every element kind, names reused
// across kinds, pinned rails and ground, checked against a direct
// first-use scan.
func TestInternNumbersInFirstUseOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, elements := range []int{7, 2049, 12293} {
		c := New("intern")
		node := func() string {
			switch k := rng.Intn(40); {
			case k == 0:
				return "0"
			case k == 1:
				return "vdd"
			default:
				return fmt.Sprintf("n%d", rng.Intn(elements))
			}
		}
		c.AddV("vdd", "vdd", "0", waveform.DC(1))
		for e := 0; e < elements; e++ {
			a, b := node(), node()
			var err error
			switch e % 5 {
			case 0, 1:
				err = c.AddR(fmt.Sprint("r", e), a, b, 1+rng.Float64())
			case 2:
				err = c.AddC(fmt.Sprint("c", e), a, b, 1e-12)
			case 3:
				err = c.AddL(fmt.Sprint("l", e), a, b, 1e-9)
			default:
				c.AddI(fmt.Sprint("i", e), a, b, waveform.DC(1e-3))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		sys, err := Stamp(c, StampOptions{CollapseSupplies: true})
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		seen := map[string]bool{"0": true, "vdd": true}
		forEachNode(c, func(name string) {
			if !seen[name] {
				seen[name] = true
				want = append(want, name)
			}
		})
		if got := sys.NodeNames(); !slices.Equal(got, want) {
			t.Fatalf("%d elements: nodes numbered %v…, want %v…", elements, got[:min(8, len(got))], want[:min(8, len(want))])
		}
	}
}
