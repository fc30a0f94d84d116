package dense

import (
	"errors"
	"math"
)

// ErrSingular is returned when a dense factorization meets a zero pivot.
var ErrSingular = errors.New("dense: matrix is singular")

// LU is a dense LU factorization with partial pivoting, P·A = L·U stored
// packed in a single matrix. The zero value is an empty factorization that
// Factor fills; its storage is reused by every later Factor.
type LU struct {
	lu  Matrix
	piv []int
	col []float64 // one column of solveMatrixInto/InverseInto
}

// FactorLU factors the square matrix a (a is not modified).
func FactorLU(a *Matrix) (*LU, error) {
	f := new(LU)
	if err := f.Factor(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Factor factors the square matrix a into f's own storage (a is not
// modified), growing it only when a is larger than any matrix f has held.
func (f *LU) Factor(a *Matrix) error {
	if a.R != a.C {
		return errors.New("dense: FactorLU needs a square matrix")
	}
	n := a.R
	lu := f.lu.CopyFrom(a)
	if cap(f.piv) < n {
		f.piv = make([]int, n)
	}
	f.piv = f.piv[:n]
	piv := f.piv
	for k := 0; k < n; k++ {
		// Partial pivot.
		p := k
		max := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > max {
				max = v
				p = i
			}
		}
		if max == 0 {
			return ErrSingular
		}
		piv[k] = p
		if p != k {
			for j := 0; j < n; j++ {
				lu.Data[k*n+j], lu.Data[p*n+j] = lu.Data[p*n+j], lu.Data[k*n+j]
			}
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			l := lu.At(i, k) / pivot
			lu.Set(i, k, l)
			if l == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Data[i*n+j] -= l * lu.Data[k*n+j]
			}
		}
	}
	return nil
}

// Solve computes x = A⁻¹ b, returning a new slice.
func (f *LU) Solve(b []float64) []float64 {
	x := make([]float64, len(b))
	f.solveInto(x, b)
	return x
}

// solveInto computes x = A⁻¹ b into x, which may be b itself.
func (f *LU) solveInto(x, b []float64) {
	n := f.lu.R
	if len(b) != n || len(x) != n {
		panic("dense: LU.Solve dimension mismatch")
	}
	copy(x, b)
	for k := 0; k < n; k++ {
		if p := f.piv[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward (unit lower).
	for i := 1; i < n; i++ {
		row := f.lu.Data[i*n : i*n+i]
		var s float64
		for j, l := range row {
			s += l * x[j]
		}
		x[i] -= s
	}
	// Backward.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Data[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
}

// SolveMatrix computes A⁻¹ B column by column.
func (f *LU) SolveMatrix(b *Matrix) *Matrix {
	out := new(Matrix)
	f.solveMatrixInto(out, b)
	return out
}

// solveMatrixInto writes A⁻¹ B into dst (Reset's growth rule), column by
// column. dst must share no storage with b.
func (f *LU) solveMatrixInto(dst, b *Matrix) {
	n := f.lu.R
	if b.R != n {
		panic("dense: SolveMatrix dimension mismatch")
	}
	col := f.column()
	dst.Reset(n, b.C)
	for j := 0; j < b.C; j++ {
		for i := range col {
			col[i] = b.At(i, j)
		}
		f.solveInto(col, col)
		for i, v := range col {
			dst.Set(i, j, v)
		}
	}
}

// InverseInto writes A⁻¹ into dst (Reset's growth rule): the columns of
// the identity, solved.
func (f *LU) InverseInto(dst *Matrix) {
	n := f.lu.R
	col := f.column()
	dst.Reset(n, n)
	for j := 0; j < n; j++ {
		clear(col)
		col[j] = 1
		f.solveInto(col, col)
		for i, v := range col {
			dst.Set(i, j, v)
		}
	}
}

// column returns f's column buffer at length n.
func (f *LU) column() []float64 {
	n := f.lu.R
	if cap(f.col) < n {
		f.col = make([]float64, n)
	}
	return f.col[:n]
}

// Solve computes x = A⁻¹ b for a dense square a (convenience wrapper).
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
