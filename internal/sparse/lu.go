package sparse

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization encounters a zero (or
// numerically vanishing) pivot.
var ErrSingular = errors.New("sparse: matrix is singular")

// LU holds a sparse LU factorization P·A·Q = L·U computed by FactorLU, where
// P is the row permutation chosen by partial pivoting and Q the fill-reducing
// column ordering. L is unit lower triangular (diagonal stored first in each
// column), U upper triangular (diagonal stored last in each column).
type LU struct {
	n    int
	l, u *CSC
	pinv []int // row i of A is row pinv[i] of P·A
	q    []int // column k of the factorization is column q[k] of A
}

// N returns the dimension of the factored matrix.
func (f *LU) N() int { return f.n }

// L returns the unit lower triangular factor.
func (f *LU) L() *CSC { return f.l }

// U returns the upper triangular factor.
func (f *LU) U() *CSC { return f.u }

// RowPerm returns pinv, with row i of A being row pinv[i] of P·A.
func (f *LU) RowPerm() []int { return f.pinv }

// ColPerm returns q, with column k of the factorization being column q[k] of A.
func (f *LU) ColPerm() []int { return f.q }

// NNZ returns the combined number of stored entries in L and U.
func (f *LU) NNZ() int { return f.l.NNZ() + f.u.NNZ() }

// FactorLU computes the sparse LU factorization of the square matrix a using
// the left-looking Gilbert-Peierls algorithm with threshold partial pivoting.
// order selects the fill-reducing column pre-ordering. pivotTol in (0, 1]
// controls the diagonal preference: the diagonal entry is kept as pivot when
// its magnitude is at least pivotTol times the column maximum (1 = classic
// partial pivoting).
func FactorLU(a *CSC, order Ordering, pivotTol float64) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: FactorLU needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if pivotTol <= 0 || pivotTol > 1 {
		pivotTol = 1
	}
	n := a.Cols
	q := Order(a, order)

	lp := make([]int, n+1)
	up := make([]int, n+1)
	li := make([]int, 0, 4*a.NNZ())
	lx := make([]float64, 0, 4*a.NNZ())
	ui := make([]int, 0, 4*a.NNZ())
	ux := make([]float64, 0, 4*a.NNZ())

	pinv := make([]int, n)
	for i := range pinv {
		pinv[i] = -1
	}
	x := make([]float64, n)
	xi := make([]int, 2*n)
	marked := make([]bool, n)
	pstack := make([]int, n)

	for k := 0; k < n; k++ {
		lp[k] = len(li)
		up[k] = len(ui)
		col := q[k]

		top := spSolveL(lp, li, lx, a, col, xi, pstack, x, pinv, marked)

		// Choose the pivot among not-yet-pivotal rows.
		ipiv := -1
		var amax float64 = -1
		for p := top; p < n; p++ {
			i := xi[p]
			if pinv[i] < 0 {
				if t := math.Abs(x[i]); t > amax {
					amax = t
					ipiv = i
				}
			} else {
				ui = append(ui, pinv[i])
				ux = append(ux, x[i])
			}
		}
		if ipiv == -1 || amax <= 0 {
			return nil, fmt.Errorf("%w: no pivot in column %d", ErrSingular, col)
		}
		// Prefer the diagonal when it is large enough (threshold pivoting).
		if pinv[col] < 0 && math.Abs(x[col]) >= amax*pivotTol {
			ipiv = col
		}
		pivot := x[ipiv]
		ui = append(ui, k)
		ux = append(ux, pivot)
		pinv[ipiv] = k
		li = append(li, ipiv)
		lx = append(lx, 1)
		for p := top; p < n; p++ {
			i := xi[p]
			if pinv[i] < 0 {
				li = append(li, i)
				lx = append(lx, x[i]/pivot)
			}
			x[i] = 0
			marked[i] = false
		}
	}
	lp[n] = len(li)
	up[n] = len(ui)
	// Remap L's row indices into pivotal order.
	for p := range li {
		li[p] = pinv[li[p]]
	}
	l := &CSC{Rows: n, Cols: n, Colptr: lp, Rowidx: li, Values: lx}
	u := &CSC{Rows: n, Cols: n, Colptr: up, Rowidx: ui, Values: ux}
	return &LU{n: n, l: l, u: u, pinv: pinv, q: q}, nil
}

// spSolveL solves L·x = A(:,col) for the sparse x, where L is the partially
// built factor addressed through (lp, li, lx) and pinv. It returns top such
// that xi[top:n] lists the nonzero pattern of x in topological order.
// Entries of marked touched here are reset by the caller.
func spSolveL(lp []int, li []int, lx []float64, a *CSC, col int, xi, pstack []int, x []float64, pinv []int, marked []bool) int {
	n := a.Cols
	top := n
	// DFS from every nonzero of A(:,col).
	for p := a.Colptr[col]; p < a.Colptr[col+1]; p++ {
		j := a.Rowidx[p]
		if marked[j] {
			continue
		}
		top = dfsL(j, lp, li, top, xi, pstack, pinv, marked)
	}
	// Clear x on the pattern, then scatter A(:,col).
	for p := top; p < n; p++ {
		x[xi[p]] = 0
	}
	for p := a.Colptr[col]; p < a.Colptr[col+1]; p++ {
		x[a.Rowidx[p]] = a.Values[p]
	}
	// Numeric sweep in topological order.
	for px := top; px < n; px++ {
		j := xi[px]
		jnew := pinv[j]
		if jnew < 0 {
			continue // row j not yet pivotal: no L column to eliminate with
		}
		xj := x[j] // L has unit diagonal (stored first), no division needed
		// jnew < k always holds here (only already-pivotal rows are swept),
		// so lp[jnew+1] is final.
		for p := lp[jnew] + 1; p < lp[jnew+1]; p++ {
			x[li[p]] -= lx[p] * xj
		}
	}
	return top
}

// dfsL performs a non-recursive depth-first search from node j over the graph
// of the partially built L (through pinv), pushing finished nodes onto
// xi[top:] in topological order.
func dfsL(j int, lp []int, li []int, top int, xi, pstack []int, pinv []int, marked []bool) int {
	head := 0
	xi[head] = j
	for head >= 0 {
		j = xi[head]
		jnew := pinv[j]
		if !marked[j] {
			marked[j] = true
			if jnew < 0 {
				pstack[head] = 0
			} else {
				pstack[head] = lp[jnew] + 1 // skip unit diagonal
			}
		}
		done := true
		var p2 int
		if jnew < 0 {
			p2 = 0
		} else {
			p2 = lp[jnew+1]
		}
		for p := pstack[head]; p < p2; p++ {
			i := li[p]
			if marked[i] {
				continue
			}
			pstack[head] = p + 1
			head++
			xi[head] = i
			done = false
			break
		}
		if done {
			head--
			top--
			xi[top] = j
		}
	}
	return top
}

// Solve computes x = A⁻¹ b, overwriting dst. dst and b may alias. It panics
// if the lengths do not match the factored dimension. It allocates its
// n-length workspace; repeated solves call SolveWith.
func (f *LU) Solve(dst, b []float64) {
	if len(dst) != f.n || len(b) != f.n {
		panic("sparse: LU.Solve dimension mismatch")
	}
	f.SolveWith(dst, b, make([]float64, f.n))
}

// SolveWith is Solve with a caller-provided workspace of length n, allowing
// allocation-free repeated solves.
func (f *LU) SolveWith(dst, b, work []float64) {
	if len(work) != f.n {
		panic("sparse: LU.SolveWith workspace length mismatch")
	}
	// work = P·b
	for i := 0; i < f.n; i++ {
		work[f.pinv[i]] = b[i]
	}
	lsolveUnit(f.l, work)
	usolve(f.u, work)
	// dst(q) = work
	for k := 0; k < f.n; k++ {
		dst[f.q[k]] = work[k]
	}
}

// lsolveUnit solves L·x = x in place for unit lower triangular L with the
// diagonal stored first in each column.
func lsolveUnit(l *CSC, x []float64) {
	for j := 0; j < l.Cols; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for p := l.Colptr[j] + 1; p < l.Colptr[j+1]; p++ {
			x[l.Rowidx[p]] -= l.Values[p] * xj
		}
	}
}

// usolve solves U·x = x in place for upper triangular U with the diagonal
// stored last in each column.
func usolve(u *CSC, x []float64) {
	for j := u.Cols - 1; j >= 0; j-- {
		d := u.Values[u.Colptr[j+1]-1]
		xj := x[j] / d
		x[j] = xj
		if xj == 0 {
			continue
		}
		for p := u.Colptr[j]; p < u.Colptr[j+1]-1; p++ {
			x[u.Rowidx[p]] -= u.Values[p] * xj
		}
	}
}
