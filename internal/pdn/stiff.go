package pdn

import (
	"fmt"
	"math"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/waveform"
)

// StiffMeshSpec builds the stiff RC mesh cases of the paper's Table 1: an
// RC mesh whose node capacitances span many decades, so the eigenvalues of
// A = -C⁻¹G do too. Stiffness is defined as Re(λmin)/Re(λmax) (both
// negative), i.e. the ratio of the fastest to the slowest time constant.
type StiffMeshSpec struct {
	NX, NY int
	// RSeg is the mesh segment resistance.
	RSeg float64
	// CFast is the smallest node capacitance; it pins the fastest time
	// constant (and with it ‖hA‖, the work the standard Krylov subspace
	// must do). Default 5e-15 F.
	CFast float64
	// CBase, when set, overrides the largest node capacitance directly;
	// otherwise it is CFast·Spread.
	CBase float64
	// Spread sets the capacitance range; stiffness scales with Spread.
	Spread float64
	// Drive adds a pulsed current source at the mesh center.
	Drive waveform.Waveform
}

// Build generates the stiff RC mesh. Capacitances are log-spaced across the
// rows, so the mesh mixes fast and slow regions like the paper's "changing
// the entries of C, G".
func (s StiffMeshSpec) Build() (*circuit.Circuit, error) {
	if s.NX < 2 || s.NY < 2 {
		return nil, fmt.Errorf("pdn: stiff mesh must be at least 2x2")
	}
	if s.Spread < 1 {
		return nil, fmt.Errorf("pdn: spread must be >= 1, got %g", s.Spread)
	}
	cfast := s.CFast
	if cfast <= 0 {
		cfast = 1e-14
	}
	cbase := s.CBase
	if cbase <= 0 {
		cbase = cfast * s.Spread
	}
	c := circuit.New(fmt.Sprintf("stiff mesh %dx%d spread %.1e", s.NX, s.NY, s.Spread))
	n := 0
	for y := 0; y < s.NY; y++ {
		// Two capacitance clusters, one decade wide each: slow rows around
		// CBase and fast rows around CFast. This is what a stiff circuit
		// looks like in practice (fast parasitic poles far from the slow
		// behavioral ones); the fastest time constant (CFast·R) stays fixed
		// while Spread stretches the slow side, keeping ‖hA‖ — the work the
		// standard Krylov subspace must do — in the regime the paper's
		// Table 1 operates in (MEXP struggles but functions).
		frac := float64(y) / float64(s.NY-1)
		var cap float64
		if frac < 0.5 {
			cap = cbase * math.Pow(10, -2*frac) // slow cluster: [CBase/10, CBase]
		} else {
			cap = cfast * math.Pow(10, 2*(1-frac)) // fast cluster: [CFast, 10·CFast]
		}
		for x := 0; x < s.NX; x++ {
			n++
			if x+1 < s.NX {
				if err := c.AddR(fmt.Sprintf("Rh%d", n), NodeName(x, y), NodeName(x+1, y), s.RSeg); err != nil {
					return nil, err
				}
			}
			if y+1 < s.NY {
				if err := c.AddR(fmt.Sprintf("Rv%d", n), NodeName(x, y), NodeName(x, y+1), s.RSeg); err != nil {
					return nil, err
				}
			}
			if err := c.AddC(fmt.Sprintf("Cn%d", n), NodeName(x, y), circuit.Ground, cap); err != nil {
				return nil, err
			}
		}
	}
	// Anchor one corner to ground through a resistor so G is nonsingular.
	if err := c.AddR("Rgnd", NodeName(0, 0), circuit.Ground, s.RSeg); err != nil {
		return nil, err
	}
	if s.Drive != nil {
		// Drive the mesh center (the fast-cluster boundary): the response is
		// then a measurable fast transient riding on the slow background,
		// so all three methods integrate a real signal. The standard Krylov
		// subspace must cover the excited fast band (m grows with ‖hA‖ —
		// the paper's Sec. 3.3 observation), while the spectral transforms
		// get it from few dimensions.
		c.AddI("Idrive", NodeName(s.NX/2, s.NY/2), circuit.Ground, s.Drive)
	}
	return c, nil
}

// Stiffness estimates Re(λmin)/Re(λmax) of A = -C⁻¹G for a system with
// nonsingular C and G. It is SpectralEdges' ratio.
func Stiffness(sys *circuit.System, iters int) (float64, error) {
	fast, slow, err := SpectralEdges(sys, iters)
	if err != nil {
		return 0, err
	}
	return math.Abs(fast / slow), nil
}

// SpectralEdges estimates the magnitudes of the fastest and slowest
// eigenvalues of A = -C⁻¹G by power iteration on C⁻¹G (fastest) and on G⁻¹C
// (whose dominant eigenvalue is the slowest mode's time constant).
func SpectralEdges(sys *circuit.System, iters int) (fast, slow float64, err error) {
	if iters <= 0 {
		iters = 200
	}
	cache := sparse.NewCache(0)
	fc, _, err := cache.Factor(sys.C, sparse.OrderDefault)
	if err != nil {
		return 0, 0, fmt.Errorf("pdn: spectral edges need nonsingular C: %w", err)
	}
	fg, _, err := cache.Factor(sys.G, sparse.OrderDefault)
	if err != nil {
		return 0, 0, fmt.Errorf("pdn: spectral edges need nonsingular G: %w", err)
	}
	n := sys.N
	tmp, work := make([]float64, n), make([]float64, n)
	fast, err = powerIteration(n, iters, func(dst, v []float64) {
		// dst = C⁻¹ G v
		sys.G.MulVec(tmp, v)
		fc.SolveWith(dst, tmp, work)
	})
	if err != nil {
		return 0, 0, err
	}
	slowInv, err := powerIteration(n, iters, func(dst, v []float64) {
		// dst = G⁻¹ C v ; its dominant eigenvalue is 1/min|λ(C⁻¹G)|
		sys.C.MulVec(tmp, v)
		fg.SolveWith(dst, tmp, work)
	})
	if err != nil {
		return 0, 0, err
	}
	if slowInv == 0 {
		return 0, 0, fmt.Errorf("pdn: inverse power iteration degenerated")
	}
	return fast, 1 / slowInv, nil
}

// powerIteration estimates the dominant eigenvalue magnitude of the linear
// operator op.
func powerIteration(n, iters int, op func(dst, v []float64)) (float64, error) {
	v := make([]float64, n)
	w := make([]float64, n)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(n)) * (1 + 0.001*float64(i%7))
	}
	var lambda float64
	for k := 0; k < iters; k++ {
		op(w, v)
		norm := vecNorm(w)
		if norm == 0 {
			return 0, fmt.Errorf("pdn: power iteration hit the null space")
		}
		lambda = norm
		for i := range v {
			v[i] = w[i] / norm
		}
	}
	return lambda, nil
}

func vecNorm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Table1Cases returns the three stiffness levels of the paper's Table 1.
// The spread is calibrated (the mesh topology adds a factor of ~1e2 between
// the capacitance ratio and the measured eigenvalue ratio) so the measured
// stiffness lands near the paper's 2.1e8 / 2.1e12 / 2.1e16.
func Table1Cases() []StiffMeshSpec {
	drive := &waveform.Pulse{V1: 0, V2: 1e-3, Delay: 0.02e-9, Rise: 0.01e-9, Width: 0.1e-9, Fall: 0.01e-9}
	mk := func(target float64) StiffMeshSpec {
		// Measured stiffness scales as ~1250x the capacitance spread on the
		// 20x20 two-cluster mesh (mesh topology factor).
		return StiffMeshSpec{NX: 20, NY: 20, RSeg: 1, Spread: target / 1250, Drive: drive}
	}
	return []StiffMeshSpec{mk(2.1e8), mk(2.1e12), mk(2.1e16)}
}
