package sparse

import (
	"fmt"
	"math"
)

// CSC is a sparse matrix in compressed sparse column form. Row indices are
// sorted within each column and duplicates have been merged.
type CSC struct {
	Rows, Cols int
	Colptr     []int     // length Cols+1
	Rowidx     []int     // length NNZ
	Values     []float64 // length NNZ
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *CSC {
	colptr := make([]int, n+1)
	rowidx := make([]int, n)
	values := make([]float64, n)
	for i := 0; i < n; i++ {
		colptr[i] = i
		rowidx[i] = i
		values[i] = 1
	}
	colptr[n] = n
	return &CSC{Rows: n, Cols: n, Colptr: colptr, Rowidx: rowidx, Values: values}
}

// Dims returns the matrix dimensions.
func (m *CSC) Dims() (rows, cols int) { return m.Rows, m.Cols }

// NNZ returns the number of stored entries.
func (m *CSC) NNZ() int { return len(m.Values) }

// At returns the entry at (i, j) using a binary search within column j.
func (m *CSC) At(i, j int) float64 {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
	lo, hi := m.Colptr[j], m.Colptr[j+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case m.Rowidx[mid] < i:
			lo = mid + 1
		case m.Rowidx[mid] > i:
			hi = mid
		default:
			return m.Values[mid]
		}
	}
	return 0
}

// Clone returns a deep copy of the matrix.
func (m *CSC) Clone() *CSC {
	c := &CSC{
		Rows:   m.Rows,
		Cols:   m.Cols,
		Colptr: append([]int(nil), m.Colptr...),
		Rowidx: append([]int(nil), m.Rowidx...),
		Values: append([]float64(nil), m.Values...),
	}
	return c
}

// Scale multiplies every stored entry by s in place and returns m.
func (m *CSC) Scale(s float64) *CSC {
	for i := range m.Values {
		m.Values[i] *= s
	}
	return m
}

// MulVec computes dst = m * x. dst must have length m.Rows and x length
// m.Cols; dst and x must not alias.
func (m *CSC) MulVec(dst, x []float64) {
	if len(dst) != m.Rows || len(x) != m.Cols {
		panic("sparse: MulVec dimension mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	for j := 0; j < m.Cols; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for p := m.Colptr[j]; p < m.Colptr[j+1]; p++ {
			dst[m.Rowidx[p]] += m.Values[p] * xj
		}
	}
}

// MulVecAdd computes dst += alpha * m * x.
func (m *CSC) MulVecAdd(dst []float64, alpha float64, x []float64) {
	if len(dst) != m.Rows || len(x) != m.Cols {
		panic("sparse: MulVecAdd dimension mismatch")
	}
	for j := 0; j < m.Cols; j++ {
		axj := alpha * x[j]
		if axj == 0 {
			continue
		}
		for p := m.Colptr[j]; p < m.Colptr[j+1]; p++ {
			dst[m.Rowidx[p]] += m.Values[p] * axj
		}
	}
}

// MulVecT computes dst = mᵀ * x, i.e. dst[j] = Σ_i m[i,j] x[i].
func (m *CSC) MulVecT(dst, x []float64) {
	if len(dst) != m.Cols || len(x) != m.Rows {
		panic("sparse: MulVecT dimension mismatch")
	}
	for j := 0; j < m.Cols; j++ {
		var s float64
		for p := m.Colptr[j]; p < m.Colptr[j+1]; p++ {
			s += m.Values[p] * x[m.Rowidx[p]]
		}
		dst[j] = s
	}
}

// Transpose returns mᵀ as a new matrix.
func (m *CSC) Transpose() *CSC {
	rowCount := make([]int, m.Rows+1)
	for _, i := range m.Rowidx {
		rowCount[i+1]++
	}
	for i := 0; i < m.Rows; i++ {
		rowCount[i+1] += rowCount[i]
	}
	t := &CSC{
		Rows:   m.Cols,
		Cols:   m.Rows,
		Colptr: rowCount,
		Rowidx: make([]int, m.NNZ()),
		Values: make([]float64, m.NNZ()),
	}
	next := make([]int, m.Rows)
	copy(next, t.Colptr[:m.Rows])
	for j := 0; j < m.Cols; j++ {
		for p := m.Colptr[j]; p < m.Colptr[j+1]; p++ {
			i := m.Rowidx[p]
			q := next[i]
			next[i]++
			t.Rowidx[q] = j
			t.Values[q] = m.Values[p]
		}
	}
	return t
}

// Add returns alpha*a + beta*b. The operands must share dimensions.
func Add(alpha float64, a *CSC, beta float64, b *CSC) *CSC {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("sparse: Add dimension mismatch")
	}
	colptr := make([]int, a.Cols+1)
	rowidx := make([]int, 0, a.NNZ()+b.NNZ())
	values := make([]float64, 0, a.NNZ()+b.NNZ())
	for j := 0; j < a.Cols; j++ {
		pa, ea := a.Colptr[j], a.Colptr[j+1]
		pb, eb := b.Colptr[j], b.Colptr[j+1]
		for pa < ea || pb < eb {
			switch {
			case pb >= eb || (pa < ea && a.Rowidx[pa] < b.Rowidx[pb]):
				rowidx = append(rowidx, a.Rowidx[pa])
				values = append(values, alpha*a.Values[pa])
				pa++
			case pa >= ea || b.Rowidx[pb] < a.Rowidx[pa]:
				rowidx = append(rowidx, b.Rowidx[pb])
				values = append(values, beta*b.Values[pb])
				pb++
			default:
				rowidx = append(rowidx, a.Rowidx[pa])
				values = append(values, alpha*a.Values[pa]+beta*b.Values[pb])
				pa++
				pb++
			}
		}
		colptr[j+1] = len(rowidx)
	}
	return &CSC{Rows: a.Rows, Cols: a.Cols, Colptr: colptr, Rowidx: rowidx, Values: values}
}

// Diag returns the matrix diagonal as a dense vector.
func (m *CSC) Diag() []float64 {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	d := make([]float64, n)
	for j := 0; j < n; j++ {
		d[j] = m.At(j, j)
	}
	return d
}

// IsSymmetric reports whether the matrix is square and |a_ij − a_ji| ≤ tol
// over the union of its pattern and its transpose's, an absent entry
// reading 0. It looks each stored entry's mirror up in place and allocates
// nothing.
func (m *CSC) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for j := 0; j < m.Cols; j++ {
		for p := m.Colptr[j]; p < m.Colptr[j+1]; p++ {
			if i := m.Rowidx[p]; i != j && math.Abs(m.Values[p]-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// OneNorm returns the maximum absolute column sum.
func (m *CSC) OneNorm() float64 {
	var max float64
	for j := 0; j < m.Cols; j++ {
		var s float64
		for p := m.Colptr[j]; p < m.Colptr[j+1]; p++ {
			s += math.Abs(m.Values[p])
		}
		if s > max {
			max = s
		}
	}
	return max
}

// InfNorm returns the maximum absolute row sum.
func (m *CSC) InfNorm() float64 {
	rowSum := make([]float64, m.Rows)
	for p, i := range m.Rowidx {
		rowSum[i] += math.Abs(m.Values[p])
	}
	var max float64
	for _, s := range rowSum {
		if s > max {
			max = s
		}
	}
	return max
}

// Dense expands the matrix into a row-major dense slice of slices, intended
// for tests and small-matrix interop.
func (m *CSC) Dense() [][]float64 {
	d := make([][]float64, m.Rows)
	for i := range d {
		d[i] = make([]float64, m.Cols)
	}
	for j := 0; j < m.Cols; j++ {
		for p := m.Colptr[j]; p < m.Colptr[j+1]; p++ {
			d[m.Rowidx[p]][j] = m.Values[p]
		}
	}
	return d
}

// DropZeros removes stored entries with absolute value <= tol, compacting in
// place, and returns m.
func (m *CSC) DropZeros(tol float64) *CSC {
	nz := 0
	colstart := make([]int, m.Cols+1)
	for j := 0; j < m.Cols; j++ {
		colstart[j] = nz
		for p := m.Colptr[j]; p < m.Colptr[j+1]; p++ {
			if math.Abs(m.Values[p]) > tol {
				m.Rowidx[nz] = m.Rowidx[p]
				m.Values[nz] = m.Values[p]
				nz++
			}
		}
	}
	colstart[m.Cols] = nz
	m.Colptr = colstart
	m.Rowidx = m.Rowidx[:nz]
	m.Values = m.Values[:nz]
	return m
}
