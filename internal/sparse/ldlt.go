package sparse

// LDLT holds a sparse LDLᵀ factorization P·A·Pᵀ = L·D·Lᵀ of a symmetric
// matrix, computed without pivoting (suitable for symmetric positive or
// negative definite systems such as the conductance matrices of RC power
// grids with collapsed supplies).
//
// The factorization is split into a once-per-pattern symbolic analysis
// (Symbolic, shared by every factor of the same sparsity pattern) and the
// numeric values held here: L stored as dense column panels, one per
// supernode of the analysis, driven by blocked kernels (supernodal.go). A
// factor is immutable through the solve API and safe for concurrent solves;
// RefactorInto mutates it and must not race with solves.
type LDLT struct {
	sym *Symbolic
	d   []float64 // diagonal of D
	// dinv holds 1/d[k], filled beside d by every refactorization, so
	// the solves scale by D⁻¹ with a multiply instead of a divide.
	dinv []float64

	// snValues holds the concatenated dense panels; smap, uptmp and coeff
	// are the refactorization workspaces (row → panel-local scatter map,
	// the contiguous update accumulator, per-column update coefficients),
	// touched only by RefactorInto, which holds the factor exclusively by
	// contract.
	snValues []float64
	smap     []int32
	uptmp    []float64
	coeff    []float64
}

// N returns the dimension of the factored matrix.
func (f *LDLT) N() int { return f.sym.n }

// Symbolic returns the shared pattern analysis behind this factor.
func (f *LDLT) Symbolic() *Symbolic { return f.sym }

// L materializes the unit lower triangular factor (unit diagonal not
// stored) as a CSC matrix over the exact fill pattern — panel padding is
// skipped. It allocates; it exists for inspection and tests, not for the
// solve path.
func (f *LDLT) L() *CSC {
	sym, sn := f.sym, f.sym.sn
	n := sym.n
	colptr := append([]int(nil), sym.colptr...)
	rowidx := make([]int, sym.lnz)
	values := make([]float64, sym.lnz)
	for t := 0; t < sn.nsuper; t++ {
		rows := sn.rows[sn.rowPtr[t]:sn.rowPtr[t+1]]
		for j := int(sn.ptr[t]); j < int(sn.ptr[t+1]); j++ {
			col := f.snValues[sn.valPtr[t]+(j-int(sn.ptr[t]))*len(rows):]
			// Column j's pattern is an ascending subset of the panel rows.
			li := 0
			for q := sym.colptr[j]; q < sym.colptr[j+1]; q++ {
				for rows[li] != sym.rowidx[q] {
					li++
				}
				rowidx[q] = int(rows[li])
				values[q] = col[li]
			}
		}
	}
	return &CSC{Rows: n, Cols: n, Colptr: colptr, Rowidx: rowidx, Values: values}
}

// D returns the diagonal of D.
func (f *LDLT) D() []float64 { return f.d }

// Perm returns the symmetric permutation: column k of the factorization is
// column p[k] of A.
func (f *LDLT) Perm() []int { return f.sym.perm }

// NNZ returns the number of stored entries in L plus D.
func (f *LDLT) NNZ() int { return f.sym.lnz + f.sym.n }

// FactorLDLT computes the LDLᵀ factorization of the symmetric matrix a with
// the given fill-reducing ordering: a symbolic analysis of the pattern
// followed by a numeric refactorization. Only the structure and values of
// the stored upper triangle of the permuted matrix are used, so a must be
// symmetric. It returns ErrSingular when a zero pivot appears (the matrix is
// not definite). Callers factorizing many matrices of one pattern should
// AnalyzeLDLT once and Refactor per matrix instead (the Cache does this
// automatically).
func FactorLDLT(a *CSC, order Ordering) (*LDLT, error) {
	sym, err := AnalyzeLDLT(a, order)
	if err != nil {
		return nil, err
	}
	return sym.Refactor(a)
}

// SolveWith computes x = A⁻¹ b into dst with a caller-provided workspace of
// length n, and allocates nothing. dst may alias b; work must overlap
// neither. The solve also uses dst as scratch: b has been read into work
// before dst is touched, and dst is written in full at the end.
func (f *LDLT) SolveWith(dst, b, work []float64) {
	n := f.sym.n
	if len(work) != n {
		panic("sparse: LDLT.SolveWith workspace length mismatch")
	}
	sn := f.sym.sn
	perm := f.sym.perm
	// work = Pᵀ·b (entry k of the permuted system is entry p[k] of the original).
	for k := 0; k < n; k++ {
		work[k] = b[perm[k]]
	}
	// dst is free until the final scatter: it holds the below-block
	// gather (maxRows ≤ n).
	g := dst[:sn.maxRows]
	f.fwdSN(work, g)
	for j, r := range f.dinv {
		work[j] *= r
	}
	for t := sn.nsuper - 1; t >= 0; t-- {
		f.bwdOneSN(t, work, g)
	}
	// dst = P·work.
	for k := 0; k < n; k++ {
		dst[perm[k]] = work[k]
	}
}
