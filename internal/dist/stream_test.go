package dist

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/matex-sim/matex/internal/superpose"
	"github.com/matex-sim/matex/internal/transient"
)

// funcPool is a fake pool whose Solve is the test's.
type funcPool struct {
	nodes int
	solve func(ctx context.Context, sys *System, task Task, req Request) (*TaskResult, error)
}

func (p funcPool) Nodes() int { return p.nodes }
func (p funcPool) Solve(ctx context.Context, sys *System, task Task, req Request) (*TaskResult, error) {
	return p.solve(ctx, sys, task, req)
}

// rowLog records the rows a run delivers through Base.OnSample and flags two
// deliveries at once.
type rowLog struct {
	t       *testing.T
	busy    atomic.Bool
	mu      sync.Mutex // for readers outside the hook
	times   []float64
	rows    [][]float64
	arrived chan struct{} // closed at the first row
}

func newRowLog(t *testing.T) *rowLog { return &rowLog{t: t, arrived: make(chan struct{})} }

func (l *rowLog) hook(tt float64, row []float64) {
	if !l.busy.CompareAndSwap(false, true) {
		l.t.Error("two rows delivered at once")
	}
	defer l.busy.Store(false)
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.times); n > 0 && tt <= l.times[n-1] {
		l.t.Errorf("row at t=%g after t=%g", tt, l.times[n-1])
	}
	if len(l.times) == 0 {
		close(l.arrived)
	}
	l.times = append(l.times, tt)
	l.rows = append(l.rows, append([]float64(nil), row...))
}

// matches reports whether the delivered rows are res's, bit for bit.
func (l *rowLog) matches(res *transient.Result) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.times) != len(res.Times) || len(l.rows) != len(res.Probes) {
		return false
	}
	for i := range l.times {
		if l.times[i] != res.Times[i] {
			return false
		}
		for k, v := range l.rows[i] {
			if v != res.Probes[i][k] {
				return false
			}
		}
	}
	return true
}

// TestRowZeroLeavesBeforeAnyTaskLands: every task streams its rows but is
// held from landing until the test has seen row 0, so row 0 — x_DC — left
// with task 0's first streamed row, not with a task's end; and it is the DC
// point the scheduler used to solve itself.
func TestRowZeroLeavesBeforeAnyTaskLands(t *testing.T) {
	sys := testSystem(t, 0.2)
	local := NewLocalPool(2, nil)
	log := newRowLog(t)
	var landed atomic.Int32
	pool := funcPool{nodes: 2, solve: func(ctx context.Context, sys *System, task Task, req Request) (*TaskResult, error) {
		tr, err := local.Solve(ctx, sys, task, req)
		select {
		case <-log.arrived:
		case <-time.After(10 * time.Second):
			return nil, errors.New("row 0 never left while the tasks were held")
		}
		defer landed.Add(1)
		return tr, err
	}}
	var landedAtRowZero int32 = -1
	var rowZero []float64
	hook := func(tt float64, row []float64) {
		if tt == 0 {
			landedAtRowZero = landed.Load()
			rowZero = append([]float64(nil), row...)
		}
		log.hook(tt, row)
	}
	probes := testProbes(sys)
	res, rep, err := Run(NewSystem(sys), transient.RMATEX, Config{Base: transient.Options{Tstop: 10e-9, Probes: probes, OnSample: hook}, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if landedAtRowZero != 0 {
		t.Fatalf("%d tasks had landed when row 0 left", landedAtRowZero)
	}
	if !log.matches(res) {
		t.Fatal("streamed rows are not the result's")
	}
	xdc, _, err := transient.DC(sys, transient.Options{}, &transient.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	for k, p := range probes {
		if rowZero[k] != xdc[p] {
			t.Fatalf("row 0 column %d is %g, x_DC %g", k, rowZero[k], xdc[p])
		}
	}
	if st := rep.TaskStats; st[0].DCTime == 0 || res.Stats.DCTime != st[0].DCTime {
		t.Errorf("DC time: task 0 %v, run %v; want task 0's", st[0].DCTime, res.Stats.DCTime)
	}
}

// remoteLike runs a task in-process but, like a remote worker, streams nothing
// and hands back the whole result for edit to tamper with.
func remoteLike(edit func(task int, r *transient.Result)) Pool {
	local := NewLocalPool(2, nil)
	return funcPool{nodes: 2, solve: func(ctx context.Context, sys *System, task Task, req Request) (*TaskResult, error) {
		req.Options.OnSample = nil
		tr, err := local.Solve(ctx, sys, task, req)
		if err == nil {
			edit(task.GroupID, tr.Result)
		}
		return tr, err
	}}
}

// TestZeroStateTaskMustStartAtZero: row 0 left as x_DC on the promise that
// every task starts at +0; a task whose landed row 0 says otherwise fails the
// run rather than leaving a different row.
func TestZeroStateTaskMustStartAtZero(t *testing.T) {
	sys := testSystem(t, 0.2)
	pool := remoteLike(func(_ int, r *transient.Result) { r.Probes[0][1] = 1e-3 })
	_, _, err := Run(NewSystem(sys), transient.RMATEX, Config{Base: transient.Options{Tstop: 10e-9, Probes: testProbes(sys)}, Pool: pool})
	if err == nil || !strings.Contains(err.Error(), "zero-state") {
		t.Fatalf("run with a task starting at 1e-3 V returned %v", err)
	}
}

// TestShortTaskIsAnError: a task that lands truncated — its samples, or its
// probe rows, stopping before Tstop — fails the run with a ShortLaneError
// naming the first grid point it never reached, and no row at or past it
// leaves. Before, a fixed-step task was flat-extrapolated from its last
// sample, silently.
func TestShortTaskIsAnError(t *testing.T) {
	sys := testSystem(t, 0.2)
	for _, c := range []struct {
		name   string
		method transient.Method
		cut    func(r *transient.Result)
	}{
		{"on the grid", transient.RMATEX, func(r *transient.Result) {
			k := len(r.Times) / 2
			r.Times, r.Probes = r.Times[:k], r.Probes[:k]
		}},
		{"fixed-step", transient.TRFixed, func(r *transient.Result) {
			k := len(r.Times) / 2
			r.Times, r.Probes = r.Times[:k], r.Probes[:k]
		}},
		{"fixed-step, rows short of the times", transient.TRFixed, func(r *transient.Result) {
			r.Probes = r.Probes[:len(r.Probes)/2]
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			log := newRowLog(t)
			var once sync.Once
			pool := remoteLike(func(_ int, r *transient.Result) { once.Do(func() { c.cut(r) }) })
			base := transient.Options{Tstop: 10e-9, Step: 0.1e-9, Probes: testProbes(sys), OnSample: log.hook}
			_, _, err := Run(NewSystem(sys), c.method, Config{Base: base, Pool: pool, Workers: 1})
			var short *superpose.ShortLaneError
			if !errors.As(err, &short) {
				t.Fatalf("truncated task: err %v, want a ShortLaneError", err)
			}
			if short.At <= 0 || short.At >= 10e-9 {
				t.Fatalf("short at t=%g", short.At)
			}
			for _, tt := range log.times {
				if tt >= short.At {
					t.Fatalf("row at t=%g left though a task stops short at t=%g", tt, short.At)
				}
			}
		})
	}
}

// TestTaskFailureAfterRowZero: a task that fails once rows have left fails
// the run with the task's own error.
func TestTaskFailureAfterRowZero(t *testing.T) {
	sys := testSystem(t, 0.2)
	local := NewLocalPool(2, nil)
	boom := errors.New("task failed")
	log := newRowLog(t)
	pool := funcPool{nodes: 2, solve: func(ctx context.Context, sys *System, task Task, req Request) (*TaskResult, error) {
		if task.GroupID == 0 {
			return local.Solve(ctx, sys, task, req)
		}
		select {
		case <-log.arrived:
			return nil, boom
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}
	_, _, err := Run(NewSystem(sys), transient.RMATEX, Config{Base: transient.Options{Tstop: 10e-9, Probes: testProbes(sys), OnSample: log.hook}, Pool: pool})
	if !errors.Is(err, boom) {
		t.Fatalf("run returned %v, want the task's error", err)
	}
	if len(log.times) == 0 || log.times[0] != 0 {
		t.Fatalf("rows before the failure start at %v", log.times)
	}
}

// TestRunCtxCancel: a canceled config context aborts the distributed run
// with the context error.
func TestRunCtxCancel(t *testing.T) {
	sys := testSystem(t, 0.15)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Run(NewSystem(sys), transient.RMATEX, Config{Base: transient.Options{Tstop: 5e-9, Ctx: ctx}})
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}
