package dist

import (
	"fmt"
	"time"

	"github.com/matex-sim/matex/internal/superpose"
	"github.com/matex-sim/matex/internal/transient"
)

// Run executes the paper's Fig. 4 flow for the nodes the pool has. It plans
// — partition the time-varying sources into bump-feature groups and merge
// them into one task per node (plan.go), task 0 also solving the DC point
// on its node (Task.DC), every other one zero-state — and superpose.Run
// executes the plan: the tasks go to the pool, at most Config.Workers at
// once, and are summed on the shared GTS grid, every coefficient 1, each row
// leaving through Config.Base.OnSample. The scheduler factorizes nothing.
//
// The Result carries the superposed probe waveforms (and final state) and
// the nodes' Stats, folded by superpose.Run's rule: DCTime is task 0's,
// TransientTime the slowest node's. The Report carries the plan and the
// per-node scheduling metrics of Table 3.
func Run(dsys *System, method transient.Method, cfg Config) (*transient.Result, *Report, error) {
	if dsys == nil || dsys.sys == nil {
		return nil, nil, fmt.Errorf("dist: nil system")
	}
	// The caller's OnSample is the superposition's; each lane gets its own.
	// The ordering is resolved once, here, so every task — the DC point's
	// among them — shares one fill and, with a shared cache, one cache key.
	emit := cfg.Base.OnSample
	cfg.Base.OnSample = nil
	req := NewRequest(dsys, method, cfg.Base)

	// The in-process tasks share a factorization cache, so G is factorized
	// at most once per distinct content, and a caller-provided cache makes
	// repeated Run calls refactorization-free.
	pool := cfg.Pool
	if pool == nil {
		pool = NewLocalPool(cfg.Workers, cfg.Base.Cache)
	}

	// Decomposition, cut for the nodes present. Only the MATEX methods pay
	// per transition spot; the others are planned without spots (see
	// planTasks).
	groups := Partition(dsys.sys, cfg.Base.Tstop)
	var spots [][]float64
	if onGrid(method) {
		spots = groupSpots(dsys.sys, groups, cfg.Base.Tstop)
	}
	nodes := pool.Nodes()
	tasks, perTask := planTasks(groups, spots, nodes)
	if len(tasks) == 0 {
		// A deck with no time-varying source has no task to carry the DC
		// point: one task of no inputs does, in-process.
		tasks, perTask, pool = []Task{{}}, []TaskReport{{}}, NewLocalPool(1, cfg.Base.Cache)
	}
	tasks[0].DC = true
	rep := &Report{Groups: len(groups), Tasks: len(tasks), PerTask: perTask}

	workers := cfg.Workers
	if workers <= 0 {
		workers = nodes
	}

	// Superposition: x(t_i) = (x_DC + x_0(t_i)) + Σ_task>0 x_task(t_i) on the
	// GTS grid, summed in plan order so the rows do not depend on completion
	// order. Every task delivers on the grid; every task but the first is
	// zero-state, so row 0 leaves with task 0's first row, x_DC.
	out := superpose.Output{Plan: superpose.Plan{Grid: req.Options.EvalTimes, Probes: req.Options.Probes}, Emit: emit}
	for i := range tasks {
		out.Lanes = append(out.Lanes, i)
		out.Plan.Addends = append(out.Plan.Addends, superpose.Addend{Coef: 1, ZeroState: i > 0})
	}

	queued := time.Now()
	results, lanes, st, err := superpose.Run(req.Options, method, len(tasks), workers, []superpose.Output{out}, func(i int, opts transient.Options) (*transient.Result, error) {
		row := &rep.PerTask[i]
		row.Wait = time.Since(queued)
		tr, err := pool.Solve(opts.Ctx, dsys, tasks[i], Request{Method: method, Options: opts})
		if err != nil {
			return nil, err
		}
		row.Elapsed, row.Retried, row.Worker = tr.Elapsed, tr.Retried, tr.Worker
		return tr.Result, nil
	})
	if err != nil {
		return nil, nil, err
	}

	res := results[0]
	res.Stats = st
	rep.TaskStats = make([]transient.Stats, len(tasks))
	for i, r := range lanes {
		rep.TaskStats[i] = r.Stats
		rep.Retried += rep.PerTask[i].Retried
		rep.MaxNodeTime = max(rep.MaxNodeTime, rep.PerTask[i].Elapsed)
		if r.Final == nil {
			res.Final = nil // a remote task's final state stayed on its worker
		}
	}
	return res, rep, nil
}
