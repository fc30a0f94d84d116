package krylov

import (
	"sync"

	"github.com/matex-sim/matex/internal/dense"
)

// Workspace is a reusable arena for subspace generation: basis vectors,
// B-products, tridiagonal coefficients, eigendecomposition buffers and the
// small dense scratch the convergence checks need. A solver acquires one
// workspace per run (WorkspacePool.Get), passes it through Options.Workspace
// for every transition spot, and releases it at the end; steady-state
// subspace generation then performs zero heap allocations — every make that
// used to happen per basis vector per spot is replaced by a buffer reuse.
//
// A workspace owns the memory of the Subspace it returns: generating the
// next subspace from the same workspace invalidates the previous one, and a
// workspace must not be shared by concurrent generations. Passing nil in
// Options.Workspace gives every call its own private arena (the pre-arena
// allocation behavior, still correct for callers holding several subspaces
// alive at once).
type Workspace struct {
	basis  [][]float64 // basis vectors v_i, length n each
	bbasis [][]float64 // B·v_i companions (Lanczos fast path)
	w, bw  []float64   // iteration vectors

	alpha, beta []float64 // Lanczos three-term coefficients
	nu          []float64 // Euclidean norms of the B-orthonormal basis vectors
	omega, omg1 []float64 // ω-recurrence rows (orthogonality loss estimate)

	hFull   *dense.Matrix // Arnoldi growing Hessenberg
	hhatBuf []float64     // m×m Hessenberg slice backing
	hhatHdr dense.Matrix  // header over hhatBuf handed to the checks
	prevU   [][]float64   // last checked e^{hH}e₁ per step size

	eigD, eigE []float64 // tridiagonal diagonal / subdiagonal copies
	eigZ       []float64 // m×m eigenvector backing
	eigQ       dense.Matrix
	mu         []float64 // converted eigenvalues f(λ_k)

	estU []float64 // estimate vector u = e^{hH}e₁

	defX, defXd, defOut []float64 // odeDefect: x, x' and the operator's answer
	defHy               []float64 // odeDefect: H_m·y

	// sub is the returned subspace (reused); the small dense scratch for
	// the augmented-expm checks and the spectral evaluation lives on it
	// (scrAug/scrHm/scrU/evalC/evalY), retained across resetSub.
	sub Subspace
}

// WorkspacePool hands out workspaces for concurrent solvers. It is the
// krylov-level analogue of the sparse factorization cache threaded through
// the stack in PR 2: the distributed scheduler and matexd workers keep one
// pool per process, so repeated subtasks reuse each other's arenas instead
// of re-growing them, while concurrent subtasks still get exclusive
// workspaces (Get transfers ownership).
type WorkspacePool struct{ p sync.Pool }

// NewWorkspacePool returns an empty pool.
func NewWorkspacePool() *WorkspacePool {
	wp := &WorkspacePool{}
	wp.p.New = func() any { return &Workspace{} }
	return wp
}

// Get returns a workspace for exclusive use until Put.
func (wp *WorkspacePool) Get() *Workspace { return wp.p.Get().(*Workspace) }

// Put returns a workspace to the pool.
func (wp *WorkspacePool) Put(ws *Workspace) {
	if ws != nil {
		wp.p.Put(ws)
	}
}

// DefaultWorkspaces is the process-wide pool used when a caller does not
// bring its own.
var DefaultWorkspaces = NewWorkspacePool()

// growF returns s resized to n, reusing capacity.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n) //matex:alloc-ok(grow path: workspace slice resized once per larger problem)
	}
	return s[:n]
}

// vec returns the i-th vector of the list resized to length n, growing the
// list and the vector as needed. Contents are unspecified.
func vec(list *[][]float64, i, n int) []float64 {
	for len(*list) <= i {
		*list = append(*list, nil) //matex:alloc-ok(grow path: basis list extended once per larger subspace)
	}
	(*list)[i] = growF((*list)[i], n)
	return (*list)[i]
}

// matrix resizes m (allocating on first use) to r×c, zeroed.
func matrix(m **dense.Matrix, r, c int) *dense.Matrix {
	if *m == nil || cap((*m).Data) < r*c {
		*m = dense.New(r, c)
	} else {
		(*m).R, (*m).C = r, c
		(*m).Data = (*m).Data[:r*c]
		for i := range (*m).Data {
			(*m).Data[i] = 0
		}
	}
	return *m
}

// prepPrevU readies the per-step-size estimate history for k step sizes of
// dimension up to maxDim, clearing previous contents.
func (ws *Workspace) prepPrevU(k, maxDim int) {
	for len(ws.prevU) < k {
		ws.prevU = append(ws.prevU, nil) //matex:alloc-ok(grow path: estimate history sized once per step-size count)
	}
	for i := 0; i < k; i++ {
		ws.prevU[i] = growF(ws.prevU[i], maxDim)
		for j := range ws.prevU[i] {
			ws.prevU[i][j] = 0
		}
	}
}

// resetSub clears the reusable Subspace for a new generation, retaining its
// lazily-grown scratch buffers.
func (ws *Workspace) resetSub(op *Op) *Subspace {
	s := &ws.sub
	s.op = op
	s.v = nil
	s.hhat = nil
	s.hm = nil
	s.hsub = 0
	s.beta = 0
	s.m = 0
	s.tri = false
	s.mu = nil
	s.q = nil
	return s
}

// eig prepares the eigendecomposition buffers for an m×m tridiagonal with
// diagonal alpha[:m] and subdiagonal beta[:m-1], runs SymTriEig, and leaves
// the eigenvalues in ws.eigD and the eigenvectors in ws.eigQ.
func (ws *Workspace) eig(alpha, beta []float64, m int) error {
	ws.eigD = growF(ws.eigD, m)
	ws.eigE = growF(ws.eigE, m)
	copy(ws.eigD, alpha[:m])
	for i := 0; i+1 < m; i++ {
		ws.eigE[i] = beta[i]
	}
	if m > 0 {
		ws.eigE[m-1] = 0
	}
	ws.eigZ = growF(ws.eigZ, m*m)
	ws.eigQ = dense.Matrix{R: m, C: m, Data: ws.eigZ[:m*m]}
	for i := range ws.eigQ.Data {
		ws.eigQ.Data[i] = 0
	}
	for i := 0; i < m; i++ {
		ws.eigQ.Data[i*m+i] = 1
	}
	return dense.SymTriEig(ws.eigD, ws.eigE, &ws.eigQ)
}
