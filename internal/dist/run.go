package dist

import (
	"context"
	"fmt"
	"time"

	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/superpose"
	"github.com/matex-sim/matex/internal/transient"
)

// Run executes the paper's Fig. 4 flow for the nodes the pool has: partition
// the time-varying sources into bump-feature groups, merge the groups into
// one task per node (plan.go), fan the tasks out as zero-state subtasks
// running method — the first of them also solving the DC operating point on
// its node (Task.DC) — and superpose the task responses on the shared GTS
// time grid (a superpose.Fold, every coefficient 1), delivering each row
// through Config.Base.OnSample as it leaves. The scheduler itself factorizes
// nothing.
//
// The returned Result carries the superposed probe waveforms (and final
// state); its Stats aggregate the work of all nodes, with TransientTime set
// to the slowest node's transient phase — the distributed wall-clock
// reading. The Report carries the plan and the per-node scheduling metrics
// of Table 3.
func Run(dsys *System, method transient.Method, cfg Config) (*transient.Result, *Report, error) {
	base := cfg.Base
	if dsys == nil || dsys.sys == nil {
		return nil, nil, fmt.Errorf("dist: nil system")
	}
	sys := dsys.sys
	if base.Tstop <= 0 {
		return nil, nil, fmt.Errorf("dist: needs positive Tstop")
	}
	// What every lane's integrator would refuse is refused here, once, before
	// anything is dispatched.
	if method.FixedStep() && base.Step <= 0 {
		return nil, nil, fmt.Errorf("dist: fixed-step method %v needs positive Step", method)
	}
	// The caller's OnSample is the superposition's; each lane gets its own.
	emit := base.OnSample
	base.OnSample = nil
	if err := superpose.CheckBase(&base); err != nil {
		return nil, nil, fmt.Errorf("dist: %w", err)
	}
	if base.Ctx == nil {
		base.Ctx = context.Background()
	}
	// The ordering is resolved once, here, so every task — the DC point's
	// among them — shares one fill and, with a shared cache, one cache key.
	req := NewRequest(dsys, method, base)
	gts := req.Options.EvalTimes

	rep := &Report{}

	// The factorization cache every in-process task goes through, so G is
	// factorized at most once per distinct content, and a caller-provided
	// cache makes repeated Run calls refactorization-free.
	cache := base.Cache
	if cache == nil {
		cache = sparse.NewCache(0)
	}
	pool := cfg.Pool
	if pool == nil {
		pool = NewLocalPool(cfg.Workers, cache)
	}

	// Decomposition, cut for the nodes present, and the shared output grid.
	// Only the MATEX methods pay per transition spot; the others are planned
	// without spots (see planTasks).
	groups := Partition(sys, base.Tstop)
	var spots [][]float64
	if onGrid(method) {
		spots = groupSpots(sys, groups, base.Tstop)
	}
	nodes := pool.Nodes()
	tasks, perTask := planTasks(groups, spots, nodes)
	if len(tasks) == 0 {
		// A deck with no time-varying source has no task to carry the DC
		// point: one task of no inputs does, in-process.
		tasks, perTask, pool = []Task{{}}, []TaskReport{{}}, NewLocalPool(1, cache)
	}
	tasks[0].DC = true
	rep.Groups, rep.Tasks, rep.PerTask = len(groups), len(tasks), perTask

	workers := cfg.Workers
	if workers <= 0 {
		workers = nodes
	}

	// Superposition: x(t_i) = (x_DC + x_0(t_i)) + Σ_task>0 x_task(t_i) on the
	// GTS grid, summed in plan order so the rows do not depend on completion
	// order. Every task delivers on the grid; every task but the first is
	// zero-state, so row 0 leaves with task 0's first row, x_DC.
	addends := make([]superpose.Addend, len(tasks))
	for i := range addends {
		addends[i] = superpose.Addend{Coef: 1, ZeroState: i > 0}
	}
	fold := superpose.NewFold(superpose.Plan{Grid: gts, Probes: base.Probes, Addends: addends}, emit)

	queued := time.Now()
	results, err := superpose.FanOut(base.Ctx, len(tasks), workers, func(ctx context.Context, i int) (*TaskResult, error) {
		wait := time.Since(queued)
		lane := req
		lane.Options.OnSample = func(t float64, row []float64) { fold.Sample(i, t, row) }
		tr, err := pool.Solve(ctx, dsys, tasks[i], lane)
		if err != nil {
			return nil, err
		}
		if err := fold.Land(i, tr.Result); err != nil {
			return nil, fmt.Errorf("dist: %w", err)
		}
		tr.Wait = wait
		return tr, nil
	})
	if err != nil {
		return nil, nil, err
	}
	res, err := fold.Result()
	if err != nil {
		return nil, nil, fmt.Errorf("dist: %w", err)
	}

	rep.TaskStats = make([]transient.Stats, len(tasks))
	for i, tr := range results {
		st := &tr.Result.Stats
		row := &rep.PerTask[i]
		row.Wait, row.Elapsed, row.Retried, row.Worker = tr.Wait, tr.Elapsed, tr.Retried, tr.Worker
		rep.TaskStats[i] = *st
		rep.Retried += tr.Retried
		rep.MaxNodeTime = max(rep.MaxNodeTime, tr.Elapsed)
		rep.MaxNodeTrTime = max(rep.MaxNodeTrTime, st.TransientTime)
		res.Stats.Add(st)
		res.Stats.FactorTime += st.FactorTime
		if tr.Result.Final == nil {
			res.Final = nil // a remote task's final state stayed on its worker
		}
	}
	rep.DCTime = rep.TaskStats[0].DCTime
	res.Stats.DCTime = rep.DCTime
	res.Stats.TransientTime = rep.MaxNodeTrTime
	return res, rep, nil
}
