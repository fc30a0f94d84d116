package dist

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/matex-sim/matex/internal/krylov"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/transient"
)

// Request is the solver configuration shared by every subtask of one
// distributed run. It is wire-friendly: everything a remote worker needs to
// reproduce the scheduler's transient.Options except the shared
// factorizations and Krylov arenas, which never travel (workers keep their
// own).
type Request struct {
	Method                  transient.Method
	Tstop, Step, Tol, Gamma float64
	MaxDim                  int
	Probes                  []int
	// EvalTimes is the shared GTS output grid every node emits snapshots on.
	EvalTimes []float64
	Ordering  sparse.Ordering
	// Krylov is the subspace process every node runs (auto / arnoldi /
	// lanczos; see krylov.Method).
	Krylov krylov.Method
	// OnSample, set per task by Run, receives the subtask's samples as it
	// records them (transient.Options.OnSample): in-process subtasks stream
	// into the scheduler's superposition. gob skips func fields, so a remote
	// subtask's samples arrive with its reply instead.
	OnSample func(t float64, probes []float64)
}

// TaskResult is one solved subtask.
type TaskResult struct {
	// Result is the zero-state group response sampled on the GTS grid.
	Result *transient.Result
	// Elapsed is the node's wall time for the subtask, all phases.
	Elapsed time.Duration
	// Retried counts re-dispatches after worker failures before success.
	Retried int
	// Worker is the address of the worker that solved it (RPC pools).
	Worker string
	// Wait is how long the task queued for an in-flight slot; the scheduler
	// fills it in, pools leave it zero.
	Wait time.Duration
}

// Pool runs subtasks somewhere: in-process goroutines (the default) or
// matexd workers over TCP (NewRPCPool). A pool is nodes, not a circuit: the
// System arrives with each task, so one pool serves any number of circuits.
// Solve must be safe for concurrent use; the scheduler issues up to
// Config.Workers calls at once. ctx cancels the subtask: in-process pools
// abort the integration, the RPC pool stops waiting for the reply (the
// remote worker finishes on its own).
type Pool interface {
	Solve(ctx context.Context, sys *System, task Task, req Request) (*TaskResult, error)
	// Nodes reports how many subtasks the pool can run at once: the live
	// workers of an RPC pool, the node count of an in-process pool. Run
	// cuts the decomposition into that many tasks and, unless
	// Config.Workers says otherwise, keeps that many in flight.
	Nodes() int
	// Close releases pool resources (network connections). The in-process
	// pool has none.
	Close() error
}

// localPool solves subtasks in-process. All subtasks share one
// factorization cache and one Krylov workspace pool, since every node of a
// run operates on the same matrices — the in-process analogue of the
// paper's cluster handing each machine the same netlist. The cache's
// singleflight lookup means concurrent subtasks needing the same operator
// (G, or C + γG for R-MATEX) wait for one factorization instead of
// duplicating it; the workspace pool hands each concurrent subtask an
// exclusive arena and lets later subtasks reuse the buffers of finished
// ones, so a long distributed run stops allocating per spot.
type localPool struct {
	nodes      int
	cache      *sparse.Cache
	workspaces *krylov.WorkspacePool
}

// NewLocalPool returns the in-process pool standing in for nodes computing
// nodes (zero or less: GOMAXPROCS) whose subtasks share cache (nil: a cache
// of the pool's own). It is what Run builds when Config.Pool is nil. Handing
// Run a local pool of len(Partition(sys, tstop)) nodes with Config.Workers =
// 1 reproduces, on one box, the paper's reading of one machine per
// bump-feature group, each timed contention-free.
func NewLocalPool(nodes int, cache *sparse.Cache) Pool {
	if nodes <= 0 {
		nodes = runtime.GOMAXPROCS(0)
	}
	if cache == nil {
		cache = sparse.NewCache(0)
	}
	return &localPool{nodes: nodes, cache: cache, workspaces: krylov.NewWorkspacePool()}
}

// Nodes implements Pool.
func (p *localPool) Nodes() int { return p.nodes }

// Solve implements Pool.
func (p *localPool) Solve(ctx context.Context, sys *System, task Task, req Request) (*TaskResult, error) {
	start := time.Now()
	opts := subtaskOptions(ctx, sys.sub, task, req, p.cache, p.workspaces)
	res, err := transient.Simulate(sys.sub, req.Method, opts)
	if err != nil {
		return nil, fmt.Errorf("dist: group %d: %w", task.GroupID, err)
	}
	return &TaskResult{Result: res, Elapsed: time.Since(start)}, nil
}

// Close implements Pool.
func (p *localPool) Close() error { return nil }
