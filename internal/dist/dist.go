package dist

import (
	"context"
	"time"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/krylov"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/transient"
	"github.com/matex-sim/matex/internal/waveform"
)

// Task is one superposition subtask: the indices of the system inputs
// simulated together on one node — one bump-feature group as Partition
// returns it, or several of them merged by the planner (plan.go).
type Task struct {
	// GroupID numbers the group (the paper's "Group #"), in first-appearance
	// order over the system inputs; a merged task carries the lowest GroupID
	// among its members.
	GroupID int
	// InputIdx are indices into the system's Inputs slice.
	InputIdx []int
}

// Partition groups the system's time-varying inputs by transition-spot
// overlap: sources whose waveforms share a bump feature (identical delay,
// rise, width, fall, period — paper Fig. 3) or an identical transition
// signature land in the same group. Supply inputs (DC rails and static
// loads) carry no transient and stay with the DC baseline.
func Partition(sys *circuit.System, tstop float64) []Task {
	var cand []int
	var waves []waveform.Waveform
	for i := range sys.Inputs {
		if sys.Inputs[i].Supply {
			continue
		}
		cand = append(cand, i)
		waves = append(waves, sys.Inputs[i].Wave)
	}
	groups := waveform.Group(waves, tstop)
	tasks := make([]Task, len(groups))
	for g, members := range groups {
		idx := make([]int, len(members))
		for j, m := range members {
			idx[j] = cand[m]
		}
		tasks[g] = Task{GroupID: g, InputIdx: idx}
	}
	return tasks
}

// Config configures a distributed MATEX run.
type Config struct {
	// Method is the per-node integrator. The zero value defaults to R-MATEX,
	// the paper's choice: a fixed-step method needs Step set, so TRFixed
	// (Method's zero value) without a Step is read as "unset".
	Method transient.Method
	// Tstop is the simulation window in seconds.
	Tstop float64
	// Step is the fixed step, for the fixed-step baseline methods only; the
	// MATEX methods pick their steps from the transition spots.
	Step float64
	// Tol is the Krylov error budget ε (default 1e-6).
	Tol float64
	// Gamma is the rational shift γ for R-MATEX (default 1e-10).
	Gamma float64
	// MaxDim caps the Krylov dimension (default 256).
	MaxDim int
	// Probes lists unknown indices recorded at every GTS point.
	Probes []int
	// Workers bounds in-flight subtasks and, for the default in-process
	// pool, is the node count the decomposition is cut for (zero:
	// GOMAXPROCS). With a Pool set, zero bounds in-flight subtasks by the
	// pool's node count and the cut follows the pool alone; the Table 3
	// harness sets 1 over a one-node-per-group pool so each node's runtime
	// is measured contention-free.
	Workers int
	// Ordering selects the sparse direct solver's fill-reducing ordering,
	// applied identically on every node.
	Ordering sparse.Ordering
	// Pool overrides where subtasks run. Nil uses an in-process goroutine
	// pool of Workers nodes; NewRPCPool dispatches to matexd workers over
	// TCP; NewLocalPool is the in-process pool with an explicit node count.
	// The pool's node count decides how many tasks the bump-feature groups
	// are merged into.
	Pool Pool
	// Cache, when non-nil, is the content-addressed factorization cache
	// shared by the scheduler's DC solve and every in-process subtask.
	// Reusing one Cache across repeated Run calls eliminates all
	// refactorization on later runs. Nil uses a run-local cache (subtasks
	// still share factorizations within the run). The cache never travels
	// over RPC: matexd workers keep their own per-process cache.
	Cache *sparse.Cache
	// Krylov selects the subspace process on every node (auto routes each
	// spot to the symmetric Lanczos fast path when it qualifies). It
	// travels with the subtask request, so matexd workers follow the
	// scheduler's choice.
	Krylov krylov.Method
	// SolveWorkers > 1 runs every node's triangular solves through the
	// factorization's level-scheduled parallel path with that many
	// goroutines (it travels with the subtask request; matexd workers may
	// substitute their own -solve-par default when it is 0). The plan
	// gives every node one task, so a node with more than one core has
	// idle cores unless this is set; the in-process pool on the other hand
	// already occupies one core per task.
	SolveWorkers int
	// Ctx, when non-nil, cancels the run: the scheduler stops dispatching
	// subtasks once it fires, in-process subtasks abort at their next
	// step/segment boundary (transient.Options.Ctx), and RPC dispatches
	// return without waiting for their in-flight reply. The serving layer
	// uses it for per-job cancellation and deadlines. The context itself
	// never travels over the wire.
	Ctx context.Context
}

// withDefaults resolves zero-valued configuration fields.
//
//matex:ctx-root(embedding API default when the caller supplies no context)
func (c Config) withDefaults() Config {
	if c.Method == transient.TRFixed && c.Step <= 0 {
		c.Method = transient.RMATEX
	}
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
	if c.Tol <= 0 {
		c.Tol = 1e-6
	}
	if c.Gamma <= 0 {
		c.Gamma = 1e-10
	}
	if c.MaxDim <= 0 {
		c.MaxDim = 256
	}
	// Resolve the ordering once, here, so the scheduler's own DC
	// factorization and every subtask share one fill and, with a shared
	// cache, one cache key.
	c.Ordering = c.Ordering.Resolve()
	return c
}

// Report carries the scheduling metrics of one distributed run, matching the
// columns the paper reports in Table 3.
type Report struct {
	// Groups is the number of bump-feature groups Partition found.
	Groups int
	// Tasks is the number of tasks dispatched: the groups merged into
	// min(Groups, pool nodes) tasks.
	Tasks int
	// DCTime is the one-shot DC operating point solve; it runs on the
	// scheduler while the tasks are out, so it adds to the wall time only
	// where it outlasts them.
	DCTime time.Duration
	// MaxNodeTime is the slowest node's wall time over all its phases — the
	// distributed makespan (the paper's t_total is DCTime + MaxNodeTime).
	MaxNodeTime time.Duration
	// MaxNodeTrTime is the slowest node's transient phase alone (the paper's
	// t_R-MATEX).
	MaxNodeTrTime time.Duration
	// Retried counts subtask dispatches repeated after a worker failure.
	Retried int
	// PerTask describes each dispatched task, in plan order.
	PerTask []TaskReport
	// TaskStats holds each task's solver work counters, indexed like
	// PerTask (the paper's per-node km comes from these).
	TaskStats []transient.Stats
}

// TaskReport is the plan and the scheduling record of one dispatched task.
type TaskReport struct {
	// Groups are the GroupIDs of the bump-feature groups merged into it.
	Groups []int
	// Spots is |∪ LTS| of those groups inside (0, Tstop], the cost the
	// planner charged the task (the paper's k); zero for the fixed-step
	// methods, which are not charged by spot.
	Spots int
	// Wait is how long the task queued for an in-flight slot.
	Wait time.Duration
	// Elapsed is the node's wall time for the task, all phases.
	Elapsed time.Duration
	// Retried counts its re-dispatches after worker failures.
	Retried int
	// Worker is the address of the matexd that solved it; empty in-process.
	Worker string
}

// subtaskRequest builds the solver configuration shared by every subtask:
// zero state, the group's inputs only, outputs on the shared GTS grid.
func subtaskRequest(cfg Config, gts []float64) Request {
	return Request{
		Method:       cfg.Method,
		Tstop:        cfg.Tstop,
		Step:         cfg.Step,
		Tol:          cfg.Tol,
		Gamma:        cfg.Gamma,
		MaxDim:       cfg.MaxDim,
		Probes:       append([]int(nil), cfg.Probes...),
		EvalTimes:    gts,
		Ordering:     cfg.Ordering,
		Krylov:       cfg.Krylov,
		SolveWorkers: cfg.SolveWorkers,
	}
}

// zeroStateSystem returns a view of sys whose time-varying inputs are
// zero-based (u_g(t) - u_g(0)): the waveform each subtask integrates from a
// zero initial state. The matrices are shared, not copied, so in-process
// factorizations remain valid for the view.
func zeroStateSystem(sys *circuit.System) *circuit.System {
	inputs := make([]circuit.Input, len(sys.Inputs))
	copy(inputs, sys.Inputs)
	for i := range inputs {
		if !inputs[i].Supply {
			inputs[i].Wave = waveform.ZeroBased{W: inputs[i].Wave}
		}
	}
	return &circuit.System{
		N:        sys.N,
		NumNodes: sys.NumNodes,
		C:        sys.C,
		G:        sys.G,
		Inputs:   inputs,
	}
}

// subtaskOptions assembles the transient.Options for one task against the
// zero-based system view. cache and workspaces are the node's shared
// resources: on the scheduler they are shared by every in-process subtask,
// on a matexd worker they are the worker's own (neither travels over RPC,
// like the paper's cluster machines) — so repeated subtasks reuse both the
// factorizations and the Krylov arenas of their predecessors. ctx (nil ok)
// cancels the subtask mid-integration; it is per-process too.
func subtaskOptions(ctx context.Context, sub *circuit.System, task Task, req Request, cache *sparse.Cache, workspaces *krylov.WorkspacePool) transient.Options {
	active := make([]bool, len(sub.Inputs))
	for _, k := range task.InputIdx {
		active[k] = true
	}
	return transient.Options{
		Tstop:        req.Tstop,
		Step:         req.Step,
		Probes:       req.Probes,
		EvalTimes:    req.EvalTimes,
		Tol:          req.Tol,
		Gamma:        req.Gamma,
		MaxDim:       req.MaxDim,
		Ordering:     req.Ordering,
		ActiveInputs: active,
		InitialState: make([]float64, sub.N),
		Cache:        cache,
		Krylov:       req.Krylov,
		Workspaces:   workspaces,
		SolveWorkers: req.SolveWorkers,
		Ctx:          ctx,
	}
}
