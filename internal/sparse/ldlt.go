package sparse

import (
	"sync"
	"sync/atomic"
)

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

	// snValues holds the concatenated dense panels; smap, uptmp and coeff
	// are the refactorization workspaces (row → panel-local scatter map,
	// the contiguous update accumulator, per-column update coefficients),
	// touched only by RefactorInto, which holds the factor exclusively by
	// contract.
	snValues []float64
	smap     []int32
	uptmp    []float64
	coeff    []float64

	// gbuf is the factor-owned below-block gather buffer for the solves
	// (8·maxRows: room for the widest multi-RHS block), claimed with a CAS
	// so the uncontended solve stays allocation-free even under the race
	// detector, where sync.Pool deliberately drops Puts. Concurrent solves
	// that lose the claim fall back to the shared pool.
	gbuf  []float64
	gbusy atomic.Bool
}

// getG claims the factor's gather buffer, falling back to the shared pool
// under contention. sz must not exceed len(gbuf). Release with putG.
//
//matex:noalloc
func (f *LDLT) getG(sz int) ([]float64, *[]float64) {
	if f.gbusy.CompareAndSwap(false, true) {
		return f.gbuf[:sz], nil
	}
	p := getWork(sz)
	return (*p)[:sz], p
}

//matex:noalloc
func (f *LDLT) putG(pooled *[]float64) {
	if pooled != nil {
		solveWork.Put(pooled)
	} else {
		f.gbusy.Store(false)
	}
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

// solveWork is the package-wide pool behind the workspace-less Solve entry
// points: one []float64 per concurrent solve, reused across factors (the
// slices are sized to the largest system seen and resliced per use).
var solveWork = sync.Pool{New: func() any { s := make([]float64, 0); return &s }}

//matex:noalloc
func getWork(n int) *[]float64 {
	w := solveWork.Get().(*[]float64)
	if cap(*w) < n {
		*w = make([]float64, n) //matex:alloc-ok(grow path: pool slice resized to the largest system seen)
	}
	return w
}

// Solve computes x = A⁻¹ b, overwriting dst. dst and b may alias. The
// workspace comes from a shared pool; repeated solves allocate nothing.
//
//matex:noalloc
func (f *LDLT) Solve(dst, b []float64) {
	if len(dst) != f.sym.n || len(b) != f.sym.n {
		panic("sparse: LDLT.Solve dimension mismatch")
	}
	w := getWork(f.sym.n)
	f.SolveWith(dst, b, (*w)[:f.sym.n])
	solveWork.Put(w)
}

// SolveWith is Solve with a caller-provided workspace of length n.
//
//matex:noalloc
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
	g, pooled := f.getG(sn.maxRows)
	f.fwdSN(work, g)
	d := f.d
	for j := 0; j < n; j++ {
		work[j] /= d[j]
	}
	for t := sn.nsuper - 1; t >= 0; t-- {
		f.bwdOneSN(t, work, g)
	}
	f.putG(pooled)
	// dst = P·work.
	for k := 0; k < n; k++ {
		dst[perm[k]] = work[k]
	}
}

// SolveMulti solves A·X = B for k right-hand sides in one traversal of the
// factor: the k solutions advance together through an interleaved panel, so
// every factor entry is loaded once per panel instead of once per
// right-hand side. dst and b must each hold k vectors of length n (dst[r]
// and b[r] may alias). The workspace comes from a shared pool.
//
//matex:noalloc
func (f *LDLT) SolveMulti(dst, b [][]float64) {
	n, k := f.sym.n, len(dst)
	if k == 0 {
		return
	}
	w := getWork(n * k)
	f.SolveMultiWith(dst, b, (*w)[:n*k])
	solveWork.Put(w)
}

// SolveMultiWith is SolveMulti with a caller-provided workspace of length
// n·k, allowing allocation-free repeated panel solves.
//
//matex:noalloc
func (f *LDLT) SolveMultiWith(dst, b [][]float64, work []float64) {
	n, k := f.sym.n, len(dst)
	if len(b) != k {
		panic("sparse: LDLT.SolveMulti needs matching panel widths")
	}
	if k == 0 {
		return
	}
	if len(work) != n*k {
		panic("sparse: LDLT.SolveMultiWith workspace length mismatch")
	}
	for r := 0; r < k; r++ {
		if len(dst[r]) != n || len(b[r]) != n {
			panic("sparse: LDLT.SolveMulti dimension mismatch")
		}
	}
	// Process the panel in blocks of bounded width — one traversal of the
	// factor's index/value arrays per block, fused per-entry updates. The
	// kernel is generic over the block width and takes up to 8 right-hand
	// sides, so a sweep's full-width panel costs a single factor traversal.
	for lo := 0; lo < k; lo += 8 {
		hi := lo + 8
		if hi > k {
			hi = k
		}
		f.solvePanelSN(dst[lo:hi], b[lo:hi], work[:(hi-lo)*n])
	}
}
