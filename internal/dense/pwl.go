package dense

import (
	"fmt"
	"sort"
)

// PWLResponse returns the exact solution of C·x' + G·x = b(t) from the DC
// operating point G·x(0) = b(0), as the full state at every output time
// (outs sorted ascending, none below 0). b must be linear between
// consecutive corners: a piecewise-linear drive whose slope changes only at
// the given corner times.
//
// Algebraic unknowns (no entry in their row or column of C) are eliminated
// by a dense Schur complement on G; the remaining ODE x' = A·x + r(t), r
// linear on every interval, is stepped exactly across every corner-to-corner
// or corner-to-output interval as the leading block of
// exp([hA h·Δr h·r₀; 0 0 1; 0 0 0])·[x; 0; 1] — one Expm per interval, so
// the answer carries no discretisation error of its own. It is the reference
// the transient oracle tests and the paper's Table 1 measure against.
func PWLResponse(c, g *Matrix, b func(t float64) []float64, corners, outs []float64) ([][]float64, error) {
	n := g.R
	var dyn, alg []int
	for i := 0; i < n; i++ {
		empty := true
		for j := 0; j < n; j++ {
			empty = empty && c.At(i, j) == 0 && c.At(j, i) == 0
		}
		if empty {
			alg = append(alg, i)
		} else {
			dyn = append(dyn, i)
		}
	}
	gdd, gda, gad := pick(g, dyn, dyn), pick(g, dyn, alg), pick(g, alg, dyn)
	var gaaLU *LU
	if len(alg) > 0 {
		var err error
		if gaaLU, err = FactorLU(pick(g, alg, alg)); err != nil {
			return nil, fmt.Errorf("dense: PWL response: G_aa: %w", err)
		}
		gdd = Add(1, gdd, -1, Mul(gda, gaaLU.SolveMatrix(gad)))
	}
	cddLU, err := FactorLU(pick(c, dyn, dyn))
	if err != nil {
		return nil, fmt.Errorf("dense: PWL response: C_dd: %w", err)
	}
	a := cddLU.SolveMatrix(gdd).Scale(-1)
	// rhs(t) = C_dd⁻¹·(b_d - G_da·G_aa⁻¹·b_a)
	rhs := func(t float64) []float64 {
		bt := b(t)
		bd := pickVec(bt, dyn)
		if len(alg) > 0 {
			corr := gda.MulVec(gaaLU.Solve(pickVec(bt, alg)))
			for i := range bd {
				bd[i] -= corr[i]
			}
		}
		return cddLU.Solve(bd)
	}
	full := func(t float64, xd []float64) []float64 {
		x := make([]float64, n)
		for i, k := range dyn {
			x[k] = xd[i]
		}
		if len(alg) > 0 {
			ba := pickVec(b(t), alg)
			gx := gad.MulVec(xd)
			for i := range ba {
				ba[i] -= gx[i]
			}
			xa := gaaLU.Solve(ba)
			for i, k := range alg {
				x[k] = xa[i]
			}
		}
		return x
	}

	x0, err := Solve(g, b(0))
	if err != nil {
		return nil, fmt.Errorf("dense: PWL response: DC: %w", err)
	}
	xd := pickVec(x0, dyn)
	nd := len(dyn)
	stops := append(append([]float64(nil), corners...), outs...)
	sort.Float64s(stops)
	out := make([][]float64, 0, len(outs))
	for len(out) < len(outs) && outs[len(out)] <= 0 {
		out = append(out, full(0, xd))
	}
	t := 0.0
	for _, tn := range stops {
		if len(out) == len(outs) {
			break
		}
		h := tn - t
		if h > 1e-18 {
			r0, r1 := rhs(t), rhs(tn)
			m := New(nd+2, nd+2)
			for i := 0; i < nd; i++ {
				for j := 0; j < nd; j++ {
					m.Set(i, j, h*a.At(i, j))
				}
				m.Set(i, nd, h*(r1[i]-r0[i]))
				m.Set(i, nd+1, h*r0[i])
			}
			m.Set(nd, nd+1, 1)
			e, err := Expm(m)
			if err != nil {
				return nil, fmt.Errorf("dense: PWL response: expm at t=%g: %w", t, err)
			}
			xd = e.MulVec(append(append([]float64(nil), xd...), 0, 1))[:nd]
			t = tn
		}
		for len(out) < len(outs) && outs[len(out)] == tn {
			out = append(out, full(tn, xd))
		}
	}
	return out, nil
}

// pick returns the submatrix of m on the given rows and columns.
func pick(m *Matrix, rows, cols []int) *Matrix {
	out := New(len(rows), len(cols))
	for i, r := range rows {
		for j, c := range cols {
			out.Set(i, j, m.At(r, c))
		}
	}
	return out
}

// pickVec returns the entries of v at idx.
func pickVec(v []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, k := range idx {
		out[i] = v[k]
	}
	return out
}
