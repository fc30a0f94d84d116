package krylov

import (
	"sync"
	"sync/atomic"

	"github.com/matex-sim/matex/internal/dense"
)

// Workspace is a reusable arena for subspace generation: basis vectors,
// B-products, tridiagonal coefficients, eigendecomposition buffers, the
// small dense scratch the convergence checks need, and the state of the
// process (arnoldi, lanczos) running on it. A solver acquires one
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
	reorthLeft  int       // full-sweep iterations pending from the ω guard

	hFull dense.Matrix // Arnoldi growing Hessenberg
	hhat  dense.Matrix // m×m leading block of hFull, Ĥ
	hm    dense.Matrix // convertH(Ĥ) at the last projected dimension
	inv   invScratch   // convertH's inverse of Ĥ
	prevU [][]float64  // last checked e^{hH}e₁ per step size

	eigD, eigE []float64    // tridiagonal diagonal / subdiagonal copies
	eigQ       dense.Matrix // eigenvectors of the tridiagonal projection
	mu         []float64    // converted eigenvalues f(λ_k)

	estU []float64 // estimate vector u = e^{hH}e₁

	defX, defXd, defOut []float64 // odeDefect: x, x' and the operator's answer
	defHy               []float64 // odeDefect: H_m·y

	// sub is the returned subspace (reused); the small dense scratch for
	// the augmented-expm checks and the evaluations lives on it, retained
	// across resetSub.
	sub Subspace
}

// WorkspacePool hands out workspaces for concurrent solvers: repeated runs
// reuse each other's arenas instead of re-growing them, while concurrent
// runs still get exclusive workspaces (Get transfers ownership). The zero
// value is ready to use. It counts the workspaces handed out and not yet
// returned (Outstanding), so a test can fail on a run that leaks one.
type WorkspacePool struct {
	p           sync.Pool
	outstanding atomic.Int64
}

// Get returns a workspace for exclusive use until Put.
func (wp *WorkspacePool) Get() *Workspace {
	wp.outstanding.Add(1)
	if ws, ok := wp.p.Get().(*Workspace); ok {
		return ws
	}
	return &Workspace{}
}

// Put returns a workspace to the pool.
func (wp *WorkspacePool) Put(ws *Workspace) {
	if ws != nil {
		wp.outstanding.Add(-1)
		wp.p.Put(ws)
	}
}

// Outstanding reports how many workspaces Get has handed out that Put has
// not yet taken back.
func (wp *WorkspacePool) Outstanding() int64 { return wp.outstanding.Load() }

// DefaultWorkspaces is the process-wide pool every MATEX run draws from.
var DefaultWorkspaces = &WorkspacePool{}

// growF returns s resized to n, reusing capacity.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// vec returns the i-th vector of the list resized to length n, growing the
// list and the vector as needed. Contents are unspecified.
func vec(list *[][]float64, i, n int) []float64 {
	for len(*list) <= i {
		*list = append(*list, nil)
	}
	(*list)[i] = growF((*list)[i], n)
	return (*list)[i]
}

// prepPrevU readies the per-step-size estimate history for k step sizes of
// dimension up to maxDim, clearing previous contents.
func (ws *Workspace) prepPrevU(k, maxDim int) {
	for len(ws.prevU) < k {
		ws.prevU = append(ws.prevU, nil)
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
	s.hm = nil
	s.hsub = 0
	s.beta = 0
	s.m = 0
	s.tri = false
	s.mu = nil
	s.q = nil
	return s
}
