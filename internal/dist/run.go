package dist

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/transient"
)

// Run executes the paper's Fig. 4 flow for the nodes the pool has: partition
// the time-varying sources into bump-feature groups, merge the groups into
// one task per node (plan.go), fan the tasks out as zero-state subtasks,
// solve the DC operating point on the scheduler meanwhile, and superpose
// the task responses with the DC baseline on the shared GTS time grid.
//
// The returned Result carries the superposed probe waveforms (and final
// state); its Stats aggregate the work of all nodes, with TransientTime set
// to the slowest node's transient phase — the distributed wall-clock
// reading. The Report carries the plan and the per-node scheduling metrics
// of Table 3.
//
//matex:ctx-exempt(the context arrives in Config.Ctx; the one receive joins Run's own DC goroutine, which never blocks)
func Run(sys *circuit.System, cfg Config) (*transient.Result, *Report, error) {
	cfg = cfg.withDefaults()
	if sys == nil {
		return nil, nil, fmt.Errorf("dist: nil system")
	}
	if cfg.Tstop <= 0 {
		return nil, nil, fmt.Errorf("dist: needs positive Tstop")
	}

	res := &transient.Result{}
	rep := &Report{}

	// The factorization cache every in-process phase goes through: the DC
	// solve and all local subtasks share it, so G is factorized at most
	// once per distinct content, and a caller-provided cfg.Cache makes
	// repeated Run calls refactorization-free.
	cache := cfg.Cache
	if cache == nil {
		cache = sparse.NewCache(0)
	}
	pool := cfg.Pool
	if pool == nil {
		pool = NewLocalPool(sys, cfg.Workers, cache)
	}

	// Decomposition, cut for the nodes present, and the shared output grid.
	// Only the MATEX methods pay per transition spot; the others are
	// planned without spots (see planTasks).
	groups := Partition(sys, cfg.Tstop)
	var spots [][]float64
	switch cfg.Method {
	case transient.MEXP, transient.IMATEX, transient.RMATEX:
		spots = groupSpots(sys, groups, cfg.Tstop)
	}
	nodes := pool.Nodes()
	tasks, perTask := planTasks(groups, spots, nodes)
	rep.Groups, rep.Tasks, rep.PerTask = len(groups), len(tasks), perTask
	gts := sys.GTS(cfg.Tstop)
	req := subtaskRequest(cfg, gts)

	workers := cfg.Workers
	if workers <= 0 {
		workers = nodes
	}
	workers = max(1, min(workers, len(tasks)))

	// DC operating point, G·x_DC = B·u(0) over all inputs, beside the
	// fan-out: zero-state subtasks do not need x_DC, it only enters at
	// superposition. The cached factorization of G is shared with the
	// in-process subtasks (I-MATEX as its Krylov operator). A DC failure
	// cancels the tasks still out.
	ctx, cancel := context.WithCancel(cfg.Ctx)
	defer cancel()
	var (
		xdc    []float64
		dcInfo sparse.FactorInfo
		dcErr  error
	)
	dcDone := make(chan struct{})
	go func() {
		defer close(dcDone)
		tDC := time.Now()
		xdc, dcInfo, dcErr = solveDC(sys, cfg, cache)
		rep.DCTime = time.Since(tDC)
		if dcErr != nil {
			cancel()
		}
	}()
	var results []*TaskResult
	var err error
	if len(tasks) > 0 {
		d := &dispatcher{pool: pool, workers: workers}
		results, err = d.run(ctx, tasks, req)
	}
	<-dcDone
	if dcErr != nil {
		return nil, nil, dcErr
	}
	if err != nil {
		return nil, nil, err
	}
	res.Stats.AddFactorInfo(dcInfo)
	res.Stats.SolvePairs++
	res.Stats.DCTime = rep.DCTime

	// Superposition: x(t_i) = x_DC + Σ_task x_task(t_i) on the GTS grid,
	// summed in plan order so the result is deterministic regardless of
	// completion order.
	res.Times = append([]float64(nil), gts...)
	if len(cfg.Probes) > 0 {
		res.Probes = make([][]float64, len(gts))
		for i := range res.Probes {
			row := make([]float64, len(cfg.Probes))
			for k, p := range cfg.Probes {
				row[k] = xdc[p]
			}
			res.Probes[i] = row
		}
	}
	res.Final = append([]float64(nil), xdc...)

	rep.TaskStats = make([]transient.Stats, len(tasks))
	for i, tr := range results {
		sub := tr.Result
		if len(cfg.Probes) > 0 {
			addProbes(res.Times, res.Probes, sub, len(cfg.Probes))
		}
		for j := range res.Final {
			if j < len(sub.Final) {
				res.Final[j] += sub.Final[j]
			}
		}
		row := &rep.PerTask[i]
		row.Wait, row.Elapsed, row.Retried, row.Worker = tr.Wait, tr.Elapsed, tr.Retried, tr.Worker
		rep.TaskStats[i] = sub.Stats
		rep.Retried += tr.Retried
		if tr.Elapsed > rep.MaxNodeTime {
			rep.MaxNodeTime = tr.Elapsed
		}
		if sub.Stats.TransientTime > rep.MaxNodeTrTime {
			rep.MaxNodeTrTime = sub.Stats.TransientTime
		}
		res.Stats.Add(&sub.Stats)
		res.Stats.FactorTime += sub.Stats.FactorTime
	}
	res.Stats.TransientTime = rep.MaxNodeTrTime
	return res, rep, nil
}

// solveDC factorizes G through the shared cache and solves the DC operating
// point over all inputs.
func solveDC(sys *circuit.System, cfg Config, cache *sparse.Cache) ([]float64, sparse.FactorInfo, error) {
	fg, info, err := cache.FactorEx(sys.G, sparse.FactorAuto, cfg.Ordering)
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

// addProbes accumulates a subtask's probe trace onto the superposed rows.
// Subtask output times normally coincide with the GTS grid (the MATEX
// solvers emit exactly the requested EvalTimes); fixed-step subtasks emit
// their own step grid instead and are linearly interpolated onto the GTS.
func addProbes(times []float64, rows [][]float64, sub *transient.Result, nProbes int) {
	aligned := len(sub.Times) == len(times)
	if aligned {
		for i := range times {
			if math.Abs(sub.Times[i]-times[i]) > 1e-15+1e-9*math.Abs(times[i]) {
				aligned = false
				break
			}
		}
	}
	if aligned {
		for i := range rows {
			for k := 0; k < nProbes; k++ {
				rows[i][k] += sub.Probes[i][k]
			}
		}
		return
	}
	for i, t := range times {
		for k := 0; k < nProbes; k++ {
			rows[i][k] += sub.InterpProbe(t, k)
		}
	}
}
