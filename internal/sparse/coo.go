package sparse

import (
	"fmt"
	"math"
	"slices"
)

// Triplet accumulates matrix entries in coordinate (COO) form. Duplicate
// entries are summed when the triplet is compressed, in the order they were
// added, which matches the "stamping" style used by modified nodal analysis.
// Indices are kept as int32: a stamp is mostly indices, and half-width ones
// halve what a large deck's triplets move through memory.
type Triplet struct {
	rows, cols int
	ri, ci     []int32
	v          []float64
}

// NewTriplet returns an empty triplet accumulator for an rows-by-cols matrix.
func NewTriplet(rows, cols int) *Triplet {
	if rows < 0 || cols < 0 {
		panic("sparse: negative dimension")
	}
	if rows > math.MaxInt32 || cols > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: triplet dimension %dx%d exceeds int32 indices", rows, cols))
	}
	return &Triplet{rows: rows, cols: cols}
}

// Dims returns the matrix dimensions.
func (t *Triplet) Dims() (rows, cols int) { return t.rows, t.cols }

// NNZ returns the number of accumulated entries (duplicates not merged).
func (t *Triplet) NNZ() int { return len(t.v) }

// Add accumulates v at position (i, j). Entries with v == 0 are kept so the
// sparsity pattern can be stamped independently of values.
func (t *Triplet) Add(i, j int, v float64) {
	if i < 0 || i >= t.rows || j < 0 || j >= t.cols {
		panic(fmt.Sprintf("sparse: triplet index (%d,%d) out of range %dx%d", i, j, t.rows, t.cols))
	}
	t.ri = append(t.ri, int32(i))
	t.ci = append(t.ci, int32(j))
	t.v = append(t.v, v)
}

// Grow makes room for n more entries, so a caller that can count its stamps
// up front (or bound them from above) appends without reallocation.
func (t *Triplet) Grow(n int) {
	t.ri = slices.Grow(t.ri, n)
	t.ci = slices.Grow(t.ci, n)
	t.v = slices.Grow(t.v, n)
}

// ToCSC compresses the triplet into CSC form, summing duplicates in the
// order they were added. The entries are bucketed by row, then each row's
// entries by column: both are stable counting sorts, so every column comes
// out with its rows ascending and a position's duplicates in stamp order,
// in time linear in the entries however they fall into columns.
func (t *Triplet) ToCSC() *CSC {
	byRow := make([]int32, len(t.v)) // entry numbers, ordered by row
	next := make([]int, t.rows+1)
	for _, i := range t.ri {
		next[i+1]++
	}
	for i := 1; i <= t.rows; i++ {
		next[i] += next[i-1]
	}
	for k, i := range t.ri {
		byRow[next[i]] = int32(k)
		next[i]++
	}

	// Count entries per column; colptr[j+1] then serves as column j's fill
	// cursor and ends up at column j+1's start.
	colptr := make([]int, t.cols+1)
	for _, j := range t.ci {
		if int(j)+2 <= t.cols {
			colptr[j+2]++
		}
	}
	for j := 2; j <= t.cols; j++ {
		colptr[j] += colptr[j-1]
	}
	rowidx := make([]int, len(t.v))
	values := make([]float64, len(t.v))
	for _, k := range byRow {
		j := t.ci[k]
		p := colptr[j+1]
		colptr[j+1]++
		rowidx[p] = int(t.ri[k])
		values[p] = t.v[k]
	}
	m := &CSC{Rows: t.rows, Cols: t.cols, Colptr: colptr, Rowidx: rowidx, Values: values}
	m.sumDuplicates()
	return m
}

// sumDuplicates merges consecutive equal row indices within each sorted
// column, compacting the storage in place.
func (m *CSC) sumDuplicates() {
	nz := 0
	start := 0 // column j's start before compaction
	for j := 0; j < m.Cols; j++ {
		p, end := start, m.Colptr[j+1]
		start = end
		m.Colptr[j] = nz
		for p < end {
			r := m.Rowidx[p]
			v := m.Values[p]
			p++
			for p < end && m.Rowidx[p] == r {
				v += m.Values[p]
				p++
			}
			m.Rowidx[nz] = r
			m.Values[nz] = v
			nz++
		}
	}
	m.Colptr[m.Cols] = nz
	m.Rowidx = m.Rowidx[:nz]
	m.Values = m.Values[:nz]
}
