package sparse

import (
	"fmt"
	"math"
)

// This file is the always-compiled half of the matexdebug invariant layer:
// exported structural checkers that tests (and the debug hooks in
// debug_on.go) run against the package's core data structures. The checkers
// return an error describing the first violation instead of panicking so
// tests can report them with context; the matexdebug build-tag hooks wrap
// them in panics. CheckFactor is allocation-free on success so the hooks
// can sit inside RefactorInto without disturbing the AllocsPerRun gates.

// CheckCSC validates the structural invariants of a CSC matrix: consistent
// array lengths, a monotone column-pointer array spanning exactly the stored
// entries, and row indices in range, strictly ascending (sorted, no
// duplicates) within each column. It allocates nothing on success.
func CheckCSC(m *CSC) error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("sparse: CheckCSC: negative dimension %dx%d", m.Rows, m.Cols)
	}
	if len(m.Colptr) != m.Cols+1 {
		return fmt.Errorf("sparse: CheckCSC: len(Colptr) = %d, want Cols+1 = %d", len(m.Colptr), m.Cols+1)
	}
	if m.Colptr[0] != 0 {
		return fmt.Errorf("sparse: CheckCSC: Colptr[0] = %d, want 0", m.Colptr[0])
	}
	nnz := m.Colptr[m.Cols]
	if len(m.Rowidx) != nnz || len(m.Values) != nnz {
		return fmt.Errorf("sparse: CheckCSC: Colptr[Cols] = %d but len(Rowidx) = %d, len(Values) = %d",
			nnz, len(m.Rowidx), len(m.Values))
	}
	for j := 0; j < m.Cols; j++ {
		lo, hi := m.Colptr[j], m.Colptr[j+1]
		if lo > hi {
			return fmt.Errorf("sparse: CheckCSC: Colptr not monotone at column %d: %d > %d", j, lo, hi)
		}
		prev := -1
		for p := lo; p < hi; p++ {
			r := m.Rowidx[p]
			if r < 0 || r >= m.Rows {
				return fmt.Errorf("sparse: CheckCSC: row index %d out of range [0,%d) in column %d", r, m.Rows, j)
			}
			if r <= prev {
				return fmt.Errorf("sparse: CheckCSC: column %d rows not strictly ascending: %d after %d", j, r, prev)
			}
			prev = r
		}
	}
	return nil
}

// CheckPerm validates that p is a permutation of 0..n-1.
func CheckPerm(p []int, n int) error {
	if len(p) != n {
		return fmt.Errorf("sparse: CheckPerm: length %d, want %d", len(p), n)
	}
	seen := make([]bool, n)
	for k, v := range p {
		if v < 0 || v >= n {
			return fmt.Errorf("sparse: CheckPerm: p[%d] = %d out of range [0,%d)", k, v, n)
		}
		if seen[v] {
			return fmt.Errorf("sparse: CheckPerm: duplicate value %d at index %d", v, k)
		}
		seen[v] = true
	}
	return nil
}

// CheckSymbolic validates the invariants of a symbolic analysis: the
// permutation and its inverse, and the elimination-tree parent-above-child
// property.
func CheckSymbolic(s *Symbolic) error {
	if err := CheckPerm(s.perm, s.n); err != nil {
		return err
	}
	for k, v := range s.perm {
		if s.pinv[v] != k {
			return fmt.Errorf("sparse: CheckSymbolic: pinv is not the inverse of perm at %d", k)
		}
	}
	for k, p := range s.parent {
		if p != -1 && int(p) <= k {
			return fmt.Errorf("sparse: CheckSymbolic: etree parent[%d] = %d not above child", k, p)
		}
	}
	return nil
}

// CheckFactor validates the numeric invariants of a freshly refactorized
// LDLT: every diagonal pivot finite and nonzero, its stored reciprocal
// exactly 1/d[k] (so a refactorization that left it stale fails here), and
// the relaxed-amalgamation padding closure: any panel position not covered
// by the exact fill pattern of its column holds an exact zero (padded
// below-diagonal positions are structurally zero because the fill pattern
// is closed; above-diagonal positions are never written after the initial
// clear). Allocation-free on
// success, so the matexdebug hook can run it inside RefactorInto without
// breaking the AllocsPerRun gates.
func CheckFactor(f *LDLT) error {
	s := f.sym
	for k, dk := range f.d {
		if dk == 0 || math.IsNaN(dk) || math.IsInf(dk, 0) {
			return fmt.Errorf("sparse: CheckFactor: pivot d[%d] = %v", k, dk)
		}
		if inv := f.dinv[k]; inv != 1/dk {
			return fmt.Errorf("sparse: CheckFactor: dinv[%d] = %v, want 1/d[%d] = %v", k, inv, k, 1/dk)
		}
	}
	sn := s.sn
	for t := 0; t < sn.nsuper; t++ {
		c0, c1 := int(sn.ptr[t]), int(sn.ptr[t+1])
		rb := sn.rowPtr[t]
		ns := sn.rowPtr[t+1] - rb
		rows := sn.rows[rb : rb+ns]
		base := sn.valPtr[t]
		for j := c0; j < c1; j++ {
			cb := base + (j-c0)*ns
			lo, hi := s.colptr[j], s.colptr[j+1]
			for li := 0; li < ns; li++ {
				r := int(rows[li])
				if r < j {
					// Above the diagonal inside the block: never written.
					if v := f.snValues[cb+li]; v != 0 {
						return fmt.Errorf("sparse: CheckFactor: supernode %d column %d: above-diagonal slot row %d holds %v", t, j, r, v)
					}
					continue
				}
				if r == j {
					continue // unit diagonal slot reused for D's pivot work
				}
				// Strictly below: must be padding-zero unless r is in the
				// exact pattern of column j (binary search, rows ascending).
				a, b := lo, hi
				found := false
				for a < b {
					mid := int(uint(a+b) >> 1)
					switch ri := int(s.rowidx[mid]); {
					case ri < r:
						a = mid + 1
					case ri > r:
						b = mid
					default:
						found = true
						a = b
					}
				}
				if !found {
					if v := f.snValues[cb+li]; v != 0 {
						return fmt.Errorf("sparse: CheckFactor: supernode %d column %d: padded slot row %d holds %v (pattern closure violated)", t, j, r, v)
					}
				}
			}
		}
	}
	return nil
}
