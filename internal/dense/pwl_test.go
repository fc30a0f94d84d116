package dense

import (
	"math"
	"testing"
)

// rampRC is the closed-form response of c·y' + g·y = b0 + k·clamp(t-t0, 0,
// t1-t0) from its DC point b0/g: the charge-up under the ramp, then the
// exponential settle onto the new level once the ramp ends.
func rampRC(t, c, g, b0, k, t0, t1 float64) float64 {
	tau := c / g
	ramp := func(s float64) float64 { return k / g * (s - tau*(1-math.Exp(-s/tau))) }
	switch {
	case t <= t0:
		return b0 / g
	case t <= t1:
		return b0/g + ramp(t-t0)
	}
	end, inf := ramp(t1-t0), k*(t1-t0)/g
	return b0/g + inf + (end-inf)*math.Exp(-(t-t1)/tau)
}

// rampAt is the drive b0 + k·clamp(t-t0, 0, t1-t0).
func rampAt(t, b0, k, t0, t1 float64) float64 {
	return b0 + k*math.Min(math.Max(t-t0, 0), t1-t0)
}

func TestPWLResponseScalarRampRC(t *testing.T) {
	c, g := 2e-12, 1e-3 // τ = 2 ns
	b0, k, t0, t1 := 1e-3, 2e6, 1e-9, 4e-9
	b := func(t float64) []float64 { return []float64{rampAt(t, b0, k, t0, t1)} }
	var outs []float64
	for i := 0; i <= 20; i++ {
		outs = append(outs, float64(i)*0.5e-9) // through both corners and past them
	}
	got, err := PWLResponse(FromRows([][]float64{{c}}), FromRows([][]float64{{g}}), b, []float64{t0, t1}, outs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(outs) {
		t.Fatalf("%d rows for %d output times", len(got), len(outs))
	}
	for i, tt := range outs {
		want := rampRC(tt, c, g, b0, k, t0, t1)
		if d := math.Abs(got[i][0] - want); d > 1e-12*math.Abs(want) {
			t.Errorf("x(%g) = %.15g, want %.15g (off by %g)", tt, got[i][0], want, d)
		}
	}
}

// TestPWLResponseEliminatesAlgebraicNode drives a node without a capacitor:
// nodes 1 and 2 (capacitance c, conductance g to ground) both reach node 3
// through a conductance s, and the ramp current enters node 3. By symmetry
// x1 = x2 = y with c·y' + g·y = u/2, and node 3 sits at y + u/(2s) — a value
// only the Schur complement's back-substitution produces.
func TestPWLResponseEliminatesAlgebraicNode(t *testing.T) {
	c, g, s := 1e-12, 2e-3, 5e-3 // τ = 0.5 ns
	u0, k, t0, t1 := 2e-3, 1e6, 0.2e-9, 1.2e-9
	cm := FromRows([][]float64{{c, 0, 0}, {0, c, 0}, {0, 0, 0}})
	gm := FromRows([][]float64{{g + s, 0, -s}, {0, g + s, -s}, {-s, -s, 2 * s}})
	b := func(t float64) []float64 { return []float64{0, 0, rampAt(t, u0, k, t0, t1)} }
	outs := []float64{0, 0.1e-9, 0.2e-9, 0.7e-9, 1.2e-9, 1.5e-9, 3e-9}
	got, err := PWLResponse(cm, gm, b, []float64{t0, t1}, outs)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range outs {
		y := rampRC(tt, c, g, u0/2, k/2, t0, t1)
		want := []float64{y, y, y + rampAt(tt, u0, k, t0, t1)/(2*s)}
		for j := range want {
			if d := math.Abs(got[i][j] - want[j]); d > 1e-12*math.Abs(want[j]) {
				t.Errorf("x%d(%g) = %.15g, want %.15g (off by %g)", j+1, tt, got[i][j], want[j], d)
			}
		}
	}
}
