package sparse

import (
	"runtime"
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

// parMinLNZ is the factor-fill crossover below which the goroutine fan-out
// costs more than the arithmetic it parallelizes, so ParSolveWith degrades
// to the sequential path.
const parMinLNZ = 32768

// ParallelizableSolve reports whether the task schedule makes a parallel
// solve worth attempting for this factor: enough fill to amortize the
// fan-out and a usable task partition (≥ 2 independent subtrees with the
// separator tail below a quarter of the work — cutTasks escalates its chunk
// bound to reach that, and leaves the schedule empty when the pattern's
// root separators make it unreachable).
func (f *LDLT) ParallelizableSolve() bool {
	return f.sym.lnz >= parMinLNZ && len(f.sym.sn.taskPtr) > 2
}

// ParSolveWith is SolveWith with the triangular solves scheduled over the
// supernode elimination-tree task partition on up to workers goroutines:
// independent subtrees run concurrently in gather (dot-product) form — each
// panel is finalized by reading only its descendants through the update
// records, so a task never touches another task's rows — and the separator
// tail of common ancestors runs sequentially after (forward) or before
// (backward) the fan-out.
// workers <= 1 and factors below the profitability crossover fall back to
// the sequential path entirely; the fan-out itself runs on a persistent
// worker pool and allocates nothing. Safe for concurrent use.
//
//matex:noalloc
func (f *LDLT) ParSolveWith(dst, b, work []float64, workers int) {
	n := f.sym.n
	if workers <= 1 || !f.ParallelizableSolve() {
		f.SolveWith(dst, b, work)
		return
	}
	if len(work) != n {
		panic("sparse: LDLT.ParSolveWith workspace length mismatch")
	}
	sn := f.sym.sn
	perm := f.sym.perm
	for k := 0; k < n; k++ {
		work[k] = b[perm[k]]
	}
	// L·z = b: subtree tasks fan out in gather form, barrier, then the
	// separator tail (also gather form — its update records reach into the
	// now-final task panels).
	f.runTasksPar(phaseFwd, work, workers)
	for _, t := range sn.tailSN {
		f.fwdOneSNGather(int(t), work)
	}
	d := f.d
	for j := 0; j < n; j++ {
		work[j] /= d[j]
	}
	// Lᵀ·x = z: separator tail first (descending), then the task fan-out.
	g, pooled := f.getG(sn.maxRows)
	for i := len(sn.tailSN) - 1; i >= 0; i-- {
		f.bwdOneSN(int(sn.tailSN[i]), work, g)
	}
	f.putG(pooled)
	f.runTasksPar(phaseBwd, work, workers)
	for k := 0; k < n; k++ {
		dst[perm[k]] = work[k]
	}
}

// Solve phases dispatched through the persistent worker pool.
const (
	phaseFwd = iota
	phaseBwd
)

// runTaskBody executes one task of the given phase: a supernode range of
// the factor's task schedule.
//
//matex:noalloc
func (f *LDLT) runTaskBody(phase uint8, t int, work []float64) {
	sn := f.sym.sn
	sns := sn.taskSN[sn.taskPtr[t]:sn.taskPtr[t+1]]
	if phase == phaseFwd {
		for _, s := range sns {
			f.fwdOneSNGather(int(s), work)
		}
		return
	}
	gw := getWork(sn.maxRows)
	g := (*gw)[:sn.maxRows]
	for i := len(sns) - 1; i >= 0; i-- {
		f.bwdOneSN(int(sns[i]), work, g)
	}
	solveWork.Put(gw)
}

func (f *LDLT) ntasks() int { return len(f.sym.sn.taskPtr) - 1 }

// parJob is one phase fan-out handed to the persistent workers: helpers and
// the submitting goroutine pull task indices from the shared cursor until
// the schedule is drained. Pooled so steady-state parallel solves allocate
// nothing.
type parJob struct {
	f      *LDLT
	work   []float64
	phase  uint8
	cursor atomic.Int64
	wg     sync.WaitGroup
}

//matex:noalloc
func (j *parJob) run() {
	n := j.f.ntasks()
	for {
		t := int(j.cursor.Add(1)) - 1
		if t >= n {
			return
		}
		j.f.runTaskBody(j.phase, t, j.work)
	}
}

var (
	parJobPool  = sync.Pool{New: func() any { return new(parJob) }}
	parWorkOnce sync.Once
	parWorkCh   chan *parJob
)

// startParWorkers launches the persistent solver worker pool. Workers idle
// on a channel between jobs; each queued reference to a job is one helper's
// participation in its fan-out.
func startParWorkers() {
	nw := runtime.GOMAXPROCS(0)
	if nw < 4 {
		nw = 4
	}
	parWorkCh = make(chan *parJob, nw)
	for i := 0; i < nw; i++ {
		go func() {
			for j := range parWorkCh {
				j.run()
				j.wg.Done()
			}
		}()
	}
}

// runTasksPar drains one phase's task schedule on up to workers goroutines
// (the caller plus workers-1 pool helpers), blocking until every task is
// done. With a single worker it degrades to a plain sequential loop.
//
//matex:noalloc
func (f *LDLT) runTasksPar(phase uint8, work []float64, workers int) {
	n := f.ntasks()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for t := 0; t < n; t++ {
			f.runTaskBody(phase, t, work)
		}
		return
	}
	parWorkOnce.Do(startParWorkers)
	j := parJobPool.Get().(*parJob)
	j.f, j.work, j.phase = f, work, phase
	j.cursor.Store(0)
	j.wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		parWorkCh <- j
	}
	j.run()
	j.wg.Wait()
	j.f, j.work = nil, nil
	parJobPool.Put(j)
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
