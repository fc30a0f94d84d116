package dist

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/superpose"
	"github.com/matex-sim/matex/internal/transient"
)

// Run executes the paper's Fig. 4 flow for the nodes the pool has: partition
// the time-varying sources into bump-feature groups, merge the groups into
// one task per node (plan.go), fan the tasks out as zero-state subtasks
// running method, solve the DC operating point on the scheduler meanwhile,
// and superpose the task responses with the DC baseline on the shared GTS
// time grid (a superpose.Fold, every coefficient 1), delivering each row
// through Config.Base.OnSample as it leaves.
//
// The returned Result carries the superposed probe waveforms (and final
// state); its Stats aggregate the work of all nodes, with TransientTime set
// to the slowest node's transient phase — the distributed wall-clock
// reading. The Report carries the plan and the per-node scheduling metrics
// of Table 3.
//
//matex:ctx-root(embedding API default when Config.Base.Ctx is nil)
//matex:ctx-exempt(the context arrives in Config.Base.Ctx; the one receive joins Run's own DC goroutine, which never blocks)
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
	// anything is dispatched — and also on a deck with no time-varying
	// source, whose plan has no lane to refuse it.
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
	// The ordering is resolved once, here, so the scheduler's own DC
	// factorization and every subtask share one fill and, with a shared
	// cache, one cache key.
	req := NewRequest(dsys, method, base)
	gts := req.Options.EvalTimes

	rep := &Report{}

	// The factorization cache every in-process phase goes through: the DC
	// solve and all local subtasks share it, so G is factorized at most
	// once per distinct content, and a caller-provided cache makes repeated
	// Run calls refactorization-free.
	cache := base.Cache
	if cache == nil {
		cache = sparse.NewCache(0)
	}
	pool := cfg.Pool
	if pool == nil {
		pool = NewLocalPool(cfg.Workers, cache)
	}

	// Decomposition, cut for the nodes present, and the shared output grid.
	// Only the MATEX methods pay per transition spot and record exactly the
	// grid; the others are planned without spots (see planTasks) and
	// interpolated onto it.
	groups := Partition(sys, base.Tstop)
	var spots [][]float64
	onGrid := false
	switch method {
	case transient.MEXP, transient.IMATEX, transient.RMATEX:
		spots = groupSpots(sys, groups, base.Tstop)
		onGrid = true
	}
	nodes := pool.Nodes()
	tasks, perTask := planTasks(groups, spots, nodes)
	rep.Groups, rep.Tasks, rep.PerTask = len(groups), len(tasks), perTask

	workers := cfg.Workers
	if workers <= 0 {
		workers = nodes
	}

	// Superposition: x(t_i) = x_DC + Σ_task x_task(t_i) on the GTS grid,
	// summed in plan order so the rows do not depend on completion order.
	// Every task is zero-state, so row 0 is x_DC and leaves with it.
	addends := make([]superpose.Addend, len(tasks))
	for i := range addends {
		addends[i] = superpose.Addend{Coef: 1, Interp: !onGrid, ZeroState: true}
	}
	fold := superpose.NewFold(superpose.Plan{Grid: gts, Probes: base.Probes, Addends: addends, Offset: true}, emit)

	// DC operating point, G·x_DC = B·u(0) over all inputs, beside the
	// fan-out: zero-state subtasks do not need x_DC, it only enters at
	// superposition. The cached factorization of G is shared with the
	// in-process subtasks (I-MATEX as its Krylov operator). A DC failure
	// cancels the tasks still out.
	ctx, cancel := context.WithCancel(base.Ctx)
	defer cancel()
	var (
		dcInfo sparse.FactorInfo
		dcErr  error
	)
	dcDone := make(chan struct{})
	go func() {
		defer close(dcDone)
		tDC := time.Now()
		var xdc []float64
		xdc, dcInfo, dcErr = solveDC(sys, req.Options.Ordering, cache)
		rep.DCTime = time.Since(tDC)
		if dcErr != nil {
			cancel()
			return
		}
		fold.SetBase(xdc)
	}()
	queued := time.Now()
	results, err := superpose.FanOut(ctx, len(tasks), workers, func(ctx context.Context, i int) (*TaskResult, error) {
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
	<-dcDone
	if dcErr != nil {
		return nil, nil, dcErr
	}
	if err != nil {
		return nil, nil, err
	}
	res, err := fold.Result()
	if err != nil {
		return nil, nil, fmt.Errorf("dist: %w", err)
	}
	res.Stats.AddFactorInfo(dcInfo)
	res.Stats.SolvePairs++
	res.Stats.DCTime = rep.DCTime

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
	res.Stats.TransientTime = rep.MaxNodeTrTime
	return res, rep, nil
}

// solveDC factorizes G through the shared cache and solves the DC operating
// point over all inputs.
func solveDC(sys *circuit.System, ordering sparse.Ordering, cache *sparse.Cache) ([]float64, sparse.FactorInfo, error) {
	fg, info, err := cache.Factor(sys.G, sparse.FactorAuto, ordering)
	if err != nil {
		return nil, info, fmt.Errorf("dist: DC factorization failed: %w", err)
	}
	b := make([]float64, sys.N)
	sys.EvalB(0, b, nil)
	xdc := make([]float64, sys.N)
	fg.Solve(xdc, b)
	for _, v := range xdc {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, info, fmt.Errorf("dist: DC solution is not finite")
		}
	}
	return xdc, info, nil
}
