package sparse

import (
	"fmt"
	"slices"
	"sort"
)

// Triplet accumulates matrix entries in coordinate (COO) form. Duplicate
// entries are summed when the triplet is compressed, which matches the
// "stamping" style used by modified nodal analysis.
type Triplet struct {
	rows, cols int
	ri, ci     []int
	v          []float64
}

// NewTriplet returns an empty triplet accumulator for an rows-by-cols matrix.
func NewTriplet(rows, cols int) *Triplet {
	if rows < 0 || cols < 0 {
		panic("sparse: negative dimension")
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
	t.ri = append(t.ri, i)
	t.ci = append(t.ci, j)
	t.v = append(t.v, v)
}

// Grow makes room for n more entries, so a caller that can count its stamps
// up front (or bound them from above) appends without reallocation.
func (t *Triplet) Grow(n int) {
	t.ri = slices.Grow(t.ri, n)
	t.ci = slices.Grow(t.ci, n)
	t.v = slices.Grow(t.v, n)
}

// ToCSC compresses the triplet into CSC form, summing duplicates.
func (t *Triplet) ToCSC() *CSC {
	// Count entries per column.
	colCount := make([]int, t.cols+1)
	for _, j := range t.ci {
		colCount[j+1]++
	}
	for j := 0; j < t.cols; j++ {
		colCount[j+1] += colCount[j]
	}
	colptr := colCount // colptr[j] is the insertion cursor for column j while filling.
	rowidx := make([]int, len(t.v))
	values := make([]float64, len(t.v))
	next := make([]int, t.cols)
	copy(next, colptr[:t.cols])
	for k := range t.v {
		j := t.ci[k]
		p := next[j]
		next[j]++
		rowidx[p] = t.ri[k]
		values[p] = t.v[k]
	}
	m := &CSC{Rows: t.rows, Cols: t.cols, Colptr: colptr, Rowidx: rowidx, Values: values}
	m.sortColumns()
	m.sumDuplicates()
	debugCheckCSC(m)
	return m
}

// sortColumns sorts row indices within each column, carrying values along.
func (m *CSC) sortColumns() {
	seg := new(colSegment) // one sort.Interface value for every column
	for j := 0; j < m.Cols; j++ {
		lo, hi := m.Colptr[j], m.Colptr[j+1]
		seg.ri, seg.v = m.Rowidx[lo:hi], m.Values[lo:hi]
		sort.Sort(seg)
	}
}

type colSegment struct {
	ri []int
	v  []float64
}

func (s *colSegment) Len() int           { return len(s.ri) }
func (s *colSegment) Less(i, j int) bool { return s.ri[i] < s.ri[j] }
func (s *colSegment) Swap(i, j int) {
	s.ri[i], s.ri[j] = s.ri[j], s.ri[i]
	s.v[i], s.v[j] = s.v[j], s.v[i]
}

// sumDuplicates merges consecutive equal row indices within each sorted
// column, compacting the storage in place.
func (m *CSC) sumDuplicates() {
	nz := 0
	colstart := make([]int, m.Cols+1)
	for j := 0; j < m.Cols; j++ {
		colstart[j] = nz
		p := m.Colptr[j]
		end := m.Colptr[j+1]
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
	colstart[m.Cols] = nz
	m.Colptr = colstart
	m.Rowidx = m.Rowidx[:nz]
	m.Values = m.Values[:nz]
}
