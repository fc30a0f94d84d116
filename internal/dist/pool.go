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

// Request is what every task of one run is solved under: the method and
// the run's solver options (NewRequest). Run sets Options.OnSample per task,
// so every task's rows stream into the superposition as they leave the
// task; SolveTask adds the task's input mask, zero initial state and
// context.
type Request struct {
	Method  transient.Method
	Options transient.Options
}

// TaskResult is one solved subtask.
type TaskResult struct {
	// Result is the zero-state group response sampled on the GTS grid.
	Result *transient.Result
	// Elapsed is the node's wall time for the subtask, all phases.
	Elapsed time.Duration
	// Retried counts re-dispatches after worker failures before success.
	Retried int
	// Worker is the address of the worker that solved it (remote pools).
	Worker string
	// Wait is how long the task queued for an in-flight slot; the scheduler
	// fills it in, pools leave it zero.
	Wait time.Duration
}

// Pool runs subtasks somewhere: in-process goroutines (the default) or job
// servers (internal/job posts each task to a worker's /v1/simulate). Solve
// answers what SolveTask answers for the task — a DC task's rows included
// x_DC — delivering each row through req.Options.OnSample, once and in
// order, as it arrives, and returns them all in its Result. A pool's Result
// may lack the final state (a remote task streams probe rows only); Run's
// Result then has none either. Solve must be safe for concurrent use; the
// scheduler issues up to Config.Workers calls at once. ctx cancels the
// subtask: in-process pools abort the integration, a remote pool cancels the
// task's job on its worker.
type Pool interface {
	Solve(ctx context.Context, sys *System, task Task, req Request) (*TaskResult, error)
	// Nodes reports how many subtasks the pool can run at once: the workers
	// of a remote pool, the node count of an in-process pool. Run cuts the
	// decomposition into that many tasks and, unless Config.Workers says
	// otherwise, keeps that many in flight.
	Nodes() int
}

// localPool solves subtasks in-process. All subtasks share one
// factorization cache and one Krylov workspace pool, since every node of a
// run operates on the same matrices — the in-process analogue of the
// paper's cluster handing each machine the same netlist. The cache's
// singleflight lookup means concurrent subtasks needing the same operator
// (G — the DC task's and every task's — or C + γG for R-MATEX) wait for one
// factorization instead of
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
	req.Options.Cache, req.Options.Workspaces = p.cache, p.workspaces
	res, err := SolveTask(ctx, sys, task, req)
	if err != nil {
		return nil, fmt.Errorf("dist: group %d: %w", task.GroupID, err)
	}
	return &TaskResult{Result: res, Elapsed: time.Since(start)}, nil
}
