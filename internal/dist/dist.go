package dist

import (
	"context"
	"fmt"
	"time"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/superpose"
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
	// DC marks the task that also carries the DC operating point: its node
	// solves G·x_DC = B·u(0) over all inputs and answers x_DC plus its
	// zero-state response (SolveTask). Run marks task 0.
	DC bool
}

// Partition groups the system's time-varying inputs by transition-spot
// overlap: sources whose waveforms share a bump feature (identical delay,
// rise, width, fall, period — paper Fig. 3) or an identical transition
// signature land in the same group. Supply inputs (DC rails and static
// loads) carry no transient and enter through the DC point alone.
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
	// Base is the solver configuration every node runs under, with the
	// defaults transient.Options documents; its Probes are recorded at every
	// GTS point. Cache is shared by the in-process subtasks, the DC point's
	// task among them (nil: a run-local one) — remote workers keep their own
	// — so reusing one across Run calls makes later runs
	// refactorization-free.
	// Ctx cancels the run: nothing further is dispatched, in-process
	// subtasks abort at their next step boundary, remote ones are canceled on
	// their workers. OnSample receives the superposed rows
	// under transient.Simulate's contract — one at a time, in time order,
	// the row aliasing the returned Result's — as they leave: t = 0 (x_DC)
	// once task 0's node has solved the DC point, every later GTS point once
	// the slowest task has passed it (in-process and remote tasks alike
	// stream their rows). A run that fails after rows have left returns the
	// error all the same.
	// OnCheckpoint and ActiveInputs are engine-owned and must be nil; every
	// node emits on the GTS grid from zero state whatever EvalTimes and
	// InitialState say.
	// The plan gives every node one task and a task runs on one core, so
	// name one worker per core (the plan is cut for the nodes present); the
	// in-process pool already occupies one core per task.
	Base transient.Options
	// Workers bounds in-flight subtasks and, for the default in-process
	// pool, is the node count the decomposition is cut for (zero:
	// GOMAXPROCS). With a Pool set, zero bounds in-flight subtasks by the
	// pool's node count and the cut follows the pool alone; the Table 3
	// harness sets 1 over a one-node-per-group pool so each node's runtime
	// is measured contention-free.
	Workers int
	// Pool overrides where subtasks run. Nil uses an in-process goroutine
	// pool of Workers nodes; NewLocalPool is the in-process pool with an
	// explicit node count; internal/job posts tasks to job servers.
	// The pool's node count decides how many tasks the bump-feature groups
	// are merged into. A pool holds no circuit and may be shared by runs on
	// different Systems, concurrently.
	Pool Pool
}

// Report carries the scheduling metrics of one distributed run, matching the
// columns the paper reports in Table 3.
type Report struct {
	// Groups is the number of bump-feature groups Partition found.
	Groups int
	// Tasks is the number of tasks dispatched: the groups merged into
	// min(Groups, pool nodes) tasks.
	Tasks int
	// DCTime is the one-shot DC operating point solve, on task 0's node
	// ahead of that task's integration (TaskStats[0].DCTime).
	DCTime time.Duration
	// MaxNodeTime is the slowest node's wall time over all its phases — the
	// distributed makespan (the paper's t_total is DCTime + MaxNodeTime; task
	// 0's phases include the DC solve).
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
	// Worker is the address of the worker that solved it; empty in-process.
	Worker string
}

// System is one circuit as the distributed engine handles it: the stamped
// system (partition, DC point, GTS) and the zero-state view every task
// integrates. Pools do not hold circuits; the System travels with each task.
// Build one per circuit and share it across runs: it is read-only and safe
// for concurrent use.
type System struct {
	sys, sub *circuit.System
}

// NewSystem wraps sys for Run. The zero-state view has every time-varying
// input zero-based (u_g(t) - u_g(0)): the waveform a subtask integrates from
// a zero initial state. The matrices are shared with sys, not copied, so
// in-process factorizations remain valid for the view.
func NewSystem(sys *circuit.System) *System {
	if sys == nil {
		return &System{}
	}
	inputs := append([]circuit.Input(nil), sys.Inputs...)
	for i := range inputs {
		if !inputs[i].Supply {
			inputs[i].Wave = waveform.ZeroBased{W: inputs[i].Wave}
		}
	}
	sub := *sys
	sub.Inputs = inputs
	return &System{sys: sys, sub: &sub}
}

// NewRequest is the Request every task of a run of method on dsys under
// base is solved with: base with its ordering resolved, so the DC solve and
// every task share one fill, and its samples on the GTS grid of the whole
// system.
func NewRequest(dsys *System, method transient.Method, base transient.Options) Request {
	base.Ordering = base.Ordering.Resolve()
	base.EvalTimes = dsys.sys.GTS(base.Tstop)
	return Request{Method: method, Options: base}
}

// SolveTask integrates one task the way every node does: the zero-state
// response of dsys to the inputs the task names (indices into the system's
// Inputs), under req as NewRequest builds it, until ctx is done, delivered
// on req's grid — a fixed-step integration is interpolated onto it here, on
// the node. A DC task (Task.DC) first solves G·x_DC = B·u(0) over every
// input (transient.DC) from the factorization of G its integration then
// takes from the cache, and its rows
// and final state are x_DC + the response, summed as Run's fold sums every
// later task onto them, so the superposition's bits do not depend on where
// x_DC was solved; the DC solve pair, factorization and time are in the
// result's Stats. The in-process pool runs it per task, and so does a job
// server handed a task spec (job.Spec.Inputs).
func SolveTask(ctx context.Context, dsys *System, task Task, req Request) (*transient.Result, error) {
	opts := req.Options
	opts.ActiveInputs = make([]bool, len(dsys.sub.Inputs))
	for _, k := range task.InputIdx {
		opts.ActiveInputs[k] = true
	}
	opts.InitialState = make([]float64, dsys.sub.N)
	opts.Ctx = ctx

	// The task's own fold: x_DC as a constant lane (a DC task), then the
	// integration, on the grid or interpolated onto it.
	grid := opts.EvalTimes
	var addends []superpose.Addend
	var dc *transient.Result
	var dcStats transient.Stats
	if task.DC {
		if opts.Cache == nil {
			opts.Cache = sparse.NewCache(0) // G is factorized once for the DC point and the integration
		}
		dcOpts := opts
		dcOpts.ActiveInputs = nil // x_DC is the whole system's
		xdc, _, err := transient.DC(dsys.sys, dcOpts, &dcStats)
		if err != nil {
			return nil, err
		}
		dc = constantLane(grid, xdc, opts.Probes)
		addends = append(addends, superpose.Addend{Coef: 1})
	}
	addends = append(addends, superpose.Addend{Coef: 1, Interp: !onGrid(req.Method), ZeroState: true})
	fold := superpose.NewFold(superpose.Plan{Grid: grid, Probes: opts.Probes, Addends: addends}, opts.OnSample)
	if dc != nil {
		if err := fold.Land(0, dc); err != nil {
			return nil, err
		}
	}
	lane := len(addends) - 1
	opts.OnSample = func(t float64, row []float64) { fold.Sample(lane, t, row) }
	r, err := transient.Simulate(dsys.sub, req.Method, opts)
	if err != nil {
		return nil, err
	}
	if err := fold.Land(lane, r); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	res, err := fold.Result()
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	res.Stats = r.Stats
	res.Stats.Add(&dcStats)
	res.Stats.DCTime += dcStats.DCTime
	return res, nil
}

// onGrid reports whether method records exactly the GTS points it is asked
// for: the MATEX methods do, the fixed-step and adaptive TR record their own
// steps.
func onGrid(method transient.Method) bool {
	switch method {
	case transient.MEXP, transient.IMATEX, transient.RMATEX:
		return true
	}
	return false
}

// constantLane is x on every grid point: rows of its probe entries (one row,
// shared) and x itself as the final state.
func constantLane(grid, x []float64, probes []int) *transient.Result {
	l := &transient.Result{Times: grid, Final: x}
	if len(probes) > 0 {
		row := make([]float64, len(probes))
		for k, p := range probes {
			row[k] = x[p]
		}
		l.Probes = make([][]float64, len(grid))
		for i := range l.Probes {
			l.Probes[i] = row
		}
	}
	return l
}
