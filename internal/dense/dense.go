// Package dense implements small dense matrix kernels for the MATEX
// simulator: the matrix exponential by Padé approximation with scaling and
// squaring (the role MATLAB's expm plays in the paper), dense LU solves for
// Hessenberg-sized systems, and a Jacobi eigensolver used to verify
// stiffness measurements.
//
// The matrices here are the m-by-m Krylov projections (m is a few dozen at
// most), so clarity wins over blocking or vectorization tricks.
package dense

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	R, C int
	Data []float64 // len R*C, Data[i*C+j]
}

// New returns a zeroed r-by-c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("dense: negative dimension")
	}
	return &Matrix{R: r, C: c, Data: make([]float64, r*c)}
}

// Eye returns the n-by-n identity.
func Eye(n int) *Matrix { return new(Matrix).setEye(n) }

// Reset reshapes m to r-by-c over its own storage, zeroed, and returns it.
// The storage grows only when it is too short, so a matrix reset to sizes
// it has held before allocates nothing.
func (m *Matrix) Reset(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("dense: negative dimension")
	}
	if cap(m.Data) < r*c {
		m.Data = make([]float64, r*c)
	} else {
		m.Data = m.Data[:r*c]
		clear(m.Data)
	}
	m.R, m.C = r, c
	return m
}

// setEye makes m the n-by-n identity over its own storage.
func (m *Matrix) setEye(n int) *Matrix {
	m.Reset(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// FromRows builds a matrix from row slices (all the same length).
func FromRows(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("dense: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.C+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.C+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix { return new(Matrix).CopyFrom(m) }

// CopyFrom makes m a copy of a over m's own storage (Reset's growth rule)
// and returns m.
func (m *Matrix) CopyFrom(a *Matrix) *Matrix {
	copy(m.Reset(a.R, a.C).Data, a.Data)
	return m
}

// Slice returns the top-left r-by-c submatrix as a copy.
func (m *Matrix) Slice(r, c int) *Matrix {
	if r > m.R || c > m.C {
		panic("dense: Slice out of range")
	}
	s := New(r, c)
	for i := 0; i < r; i++ {
		copy(s.Data[i*c:(i+1)*c], m.Data[i*m.C:i*m.C+c])
	}
	return s
}

// Mul returns a*b.
func Mul(a, b *Matrix) *Matrix { return MulInto(new(Matrix), a, b) }

// MulInto writes a*b into dst (Reset's growth rule) and returns dst, which
// must share no storage with a or b.
func MulInto(dst, a, b *Matrix) *Matrix {
	if a.C != b.R {
		panic(fmt.Sprintf("dense: Mul dimension mismatch %dx%d * %dx%d", a.R, a.C, b.R, b.C))
	}
	out := dst.Reset(a.R, b.C)
	for i := 0; i < a.R; i++ {
		arow := a.Data[i*a.C : (i+1)*a.C]
		orow := out.Data[i*b.C : (i+1)*b.C]
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.Data[k*b.C : (k+1)*b.C]
			for j, bkj := range brow {
				orow[j] += aik * bkj
			}
		}
	}
	return out
}

// MulVec returns a*x as a new vector.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.C {
		panic("dense: MulVec dimension mismatch")
	}
	y := make([]float64, m.R)
	for i := 0; i < m.R; i++ {
		row := m.Data[i*m.C : (i+1)*m.C]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// Add returns alpha*a + beta*b.
func Add(alpha float64, a *Matrix, beta float64, b *Matrix) *Matrix {
	return addInto(new(Matrix), alpha, a, beta, b)
}

// addInto writes alpha*a + beta*b into dst and returns it. dst may be a or
// b itself; any other dst is reshaped by Reset's growth rule.
func addInto(dst *Matrix, alpha float64, a *Matrix, beta float64, b *Matrix) *Matrix {
	if a.R != b.R || a.C != b.C {
		panic("dense: Add dimension mismatch")
	}
	if dst != a && dst != b {
		dst.Reset(a.R, a.C)
	}
	for i := range dst.Data {
		dst.Data[i] = alpha*a.Data[i] + beta*b.Data[i]
	}
	return dst
}

// Scale multiplies every element by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.C, m.R)
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			t.Data[j*t.C+i] = m.Data[i*m.C+j]
		}
	}
	return t
}

// OneNorm returns the maximum absolute column sum.
func (m *Matrix) OneNorm() float64 {
	var max float64
	for j := 0; j < m.C; j++ {
		var s float64
		for i := 0; i < m.R; i++ {
			s += math.Abs(m.Data[i*m.C+j])
		}
		if s > max {
			max = s
		}
	}
	return max
}

// InfNorm returns the maximum absolute row sum.
func (m *Matrix) InfNorm() float64 {
	var max float64
	for i := 0; i < m.R; i++ {
		var s float64
		for j := 0; j < m.C; j++ {
			s += math.Abs(m.Data[i*m.C+j])
		}
		if s > max {
			max = s
		}
	}
	return max
}

// FrobNorm returns the Frobenius norm.
func (m *Matrix) FrobNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Equalish reports element-wise equality within tol.
func Equalish(a, b *Matrix, tol float64) bool {
	if a.R != b.R || a.C != b.C {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}
