package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"github.com/matex-sim/matex/internal/dense"
	"github.com/matex-sim/matex/internal/krylov"
	"github.com/matex-sim/matex/internal/sparse"
)

// Fig5Series is one curve of the paper's Fig. 5: for a fixed rational-Krylov
// dimension m, the error |e^{hA}v - ‖v‖·V_m·e^{hH_m}·e₁| as a function of
// the step h, with a dense expm as the exact baseline.
type Fig5Series struct {
	M    int
	H    []float64
	Errs []float64
}

// Fig5Config parameterizes the sweep.
type Fig5Config struct {
	// N is the RC system size (small so dense expm is exact baseline).
	N int
	// Spread is the capacitance spread (stiffness knob).
	Spread float64
	// Gamma is the fixed rational shift.
	Gamma float64
	// Dims are the subspace dimensions to sweep.
	Dims []int
	// Steps are the h values; default log-spaced 1e-13..1e-9.
	Steps []float64
	Seed  int64
}

func (c Fig5Config) withDefaults() Fig5Config {
	if c.N <= 0 {
		c.N = 16
	}
	if c.Spread <= 0 {
		c.Spread = 1e6
	}
	if c.Gamma <= 0 {
		c.Gamma = 1e-12
	}
	if len(c.Dims) == 0 {
		c.Dims = []int{2, 4, 6, 8}
	}
	if len(c.Steps) == 0 {
		for e := -13.0; e <= -9.01; e += 0.5 {
			c.Steps = append(c.Steps, math.Pow(10, e))
		}
	}
	return c
}

// RunFig5 regenerates the Fig. 5 sweep.
func RunFig5(cfg Fig5Config) ([]Fig5Series, error) {
	cfg = cfg.withDefaults()
	cm, gm := fig5System(cfg.N, cfg.Spread, cfg.Seed)
	a, err := fig5DenseA(cm, gm)
	if err != nil {
		return nil, err
	}
	factS, _, err := sparse.NewCache(0).FactorSum(1, cm, cfg.Gamma, gm, sparse.OrderDefault)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	v := make([]float64, cfg.N)
	for i := range v {
		v[i] = rng.NormFloat64()
	}

	var series []Fig5Series
	for _, m := range cfg.Dims {
		op := krylov.NewRationalOp(factS, cm, gm, cfg.Gamma, &krylov.Counters{})
		// [v;0;0]: the auxiliary input chain never enters the subspace, so
		// the sweep measures the pure e^{hA}v approximation of Fig. 5.
		vaug := make([]float64, cfg.N+2)
		copy(vaug, v)
		sub, err := krylov.Arnoldi(op, vaug, []float64{cfg.Steps[0]}, krylov.Options{MaxDim: m, ForceDim: true})
		if err != nil {
			return nil, fmt.Errorf("fig5: m=%d: %w", m, err)
		}
		s := Fig5Series{M: sub.Dim()}
		got := make([]float64, cfg.N+2)
		for _, h := range cfg.Steps {
			want, err := dense.ExpmVec(a, h, v)
			if err != nil {
				return nil, err
			}
			if err := sub.EvalExp(h, got); err != nil {
				return nil, err
			}
			var d float64
			for i := range want {
				d += (got[i] - want[i]) * (got[i] - want[i])
			}
			s.H = append(s.H, h)
			s.Errs = append(s.Errs, math.Sqrt(d))
		}
		series = append(series, s)
	}
	return series, nil
}

// fig5System builds the small stiff RC pair used for the sweep.
func fig5System(n int, spread float64, seed int64) (cm, gm *sparse.CSC) {
	rng := rand.New(rand.NewSource(seed))
	gt := sparse.NewTriplet(n, n)
	diag := make([]float64, n)
	for i := range diag {
		diag[i] = 0.05
	}
	for i := 0; i < n-1; i++ {
		g := 0.5 + rng.Float64()
		gt.Add(i, i+1, -g)
		gt.Add(i+1, i, -g)
		diag[i] += g
		diag[i+1] += g
	}
	for i := 0; i < n; i++ {
		gt.Add(i, i, diag[i])
	}
	ct := sparse.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		frac := float64(i) / float64(n-1)
		ct.Add(i, i, 1e-12*math.Pow(spread, -frac))
	}
	return ct.ToCSC(), gt.ToCSC()
}

func fig5DenseA(cm, gm *sparse.CSC) (*dense.Matrix, error) {
	n := cm.Rows
	cd := cm.Dense()
	gd := gm.Dense()
	a := dense.New(n, n)
	for i := 0; i < n; i++ {
		if cd[i][i] == 0 {
			return nil, fmt.Errorf("fig5: zero capacitance at %d", i)
		}
		for j := 0; j < n; j++ {
			a.Set(i, j, -gd[i][j]/cd[i][i])
		}
	}
	return a, nil
}

// PrintFig5 renders the series as columns (h, then one error column per m).
func PrintFig5(w io.Writer, series []Fig5Series) {
	fmt.Fprintln(w, "Fig 5: |e^{hA}v - ||v|| V_m e^{hH_m} e1| vs step h (rational Krylov)")
	fmt.Fprintf(w, "%12s", "h")
	for _, s := range series {
		fmt.Fprintf(w, " %12s", fmt.Sprintf("err(m=%d)", s.M))
	}
	fmt.Fprintln(w)
	if len(series) == 0 {
		return
	}
	for i := range series[0].H {
		fmt.Fprintf(w, "%12.3e", series[0].H[i])
		for _, s := range series {
			fmt.Fprintf(w, " %12.3e", s.Errs[i])
		}
		fmt.Fprintln(w)
	}
}
