package superpose

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/matex-sim/matex/internal/transient"
)

// runBase is a shared option bundle Run accepts.
var runBase = transient.Options{Tstop: 3, Probes: []int{0, 1}}

// stream delivers r's rows through the lane's OnSample, as an integrator
// records them, and returns r.
func stream(opts transient.Options, r *transient.Result) (*transient.Result, error) {
	for i, t := range r.Times {
		opts.OnSample(t, r.Probes[i])
	}
	return r, nil
}

// TestRunOneLaneFeedsTwoOutputs: the sweep's shared supplies lane feeds two
// variants, x_sup + c·x_load each; both outputs, streamed and returned, are
// the hand fold c0·x_sup + c1·x_load bit for bit, and every lane runs under
// one defaulted cache and a live context.
func TestRunOneLaneFeedsTwoOutputs(t *testing.T) {
	grid := []float64{0, 0.5, 1.5, 3}
	lanes := []*transient.Result{
		lane(grid, func(k int, t float64) float64 { return 1.8 - 0.1*float64(k) - t/3 }, 1, 2),
		lane(grid, func(k int, t float64) float64 { return 0.3*t*t + float64(k) }, 3, 4),
		lane(grid, func(k int, t float64) float64 { return -t / 7 }, 5, 6),
	}
	coefs := []float64{0.75, -1.25}
	emits := []*emitted{{t: t}, {t: t}}
	var outs []Output
	for o, c := range coefs {
		outs = append(outs, Output{
			Plan:  Plan{Probes: runBase.Probes, Addends: []Addend{{Coef: 1}, {Coef: c}}},
			Lanes: []int{0, 1 + o},
			Emit:  emits[o].hook,
		})
	}
	seen := make([]transient.Options, len(lanes))
	got, ran, _, err := Run(runBase, transient.RMATEX, len(lanes), len(lanes), outs, func(i int, opts transient.Options) (*transient.Result, error) {
		seen[i] = opts
		return stream(opts, lanes[i])
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range seen {
		if o.Cache == nil || o.Cache != seen[0].Cache || o.Ctx == nil {
			t.Errorf("lane %d ran under cache %p (lane 0: %p) and context %v", i, o.Cache, seen[0].Cache, o.Ctx)
		}
	}
	for i, r := range ran {
		if r != lanes[i] {
			t.Errorf("lane %d's result is not the runner's", i)
		}
	}
	for o, c := range coefs {
		l := lanes[1+o]
		for i := range grid {
			want := make([]float64, 2)
			for k := range want {
				want[k] = 1 * lanes[0].Probes[i][k]
				want[k] += c * l.Probes[i][k]
			}
			if !sameBits(got[o].Probes[i], want) || !sameBits(emits[o].rows[i], want) {
				t.Fatalf("output %d row %d: returned %v, streamed %v, want %v", o, i, got[o].Probes[i], emits[o].rows[i], want)
			}
		}
		if len(emits[o].rows) != len(grid) {
			t.Errorf("output %d streamed %d rows, want %d", o, len(emits[o].rows), len(grid))
		}
		if f := []float64{1 + c*l.Final[0], 2 + c*l.Final[1]}; !sameBits(got[o].Final, f) {
			t.Errorf("output %d final state %v, want %v", o, got[o].Final, f)
		}
	}
}

// TestRunZeroStateRowZeroLeavesFirst: on a grid, the lanes an output
// declares zero-state have passed grid[0] before they start, so row 0 —
// the base lane's, as D-MATEX's task 0 carries x_DC — leaves while every
// zero-state lane is still held back.
func TestRunZeroStateRowZeroLeavesFirst(t *testing.T) {
	grid := []float64{0, 1, 2}
	zero := func(k int, t float64) float64 { return t * float64(k+1) } // +0 at t = 0
	lanes := []*transient.Result{
		lane(grid, func(k int, t float64) float64 { return 5 - t - float64(k) }),
		lane(grid, zero),
		lane(grid, zero),
	}
	rowZero := make(chan struct{})
	out := Output{Plan: Plan{Grid: grid, Probes: runBase.Probes}}
	for i := range lanes {
		out.Lanes = append(out.Lanes, i)
		out.Plan.Addends = append(out.Plan.Addends, Addend{Coef: 1, ZeroState: i > 0})
	}
	var landed atomic.Int32
	rows, landedAtRowZero := 0, int32(-1)
	out.Emit = func(tt float64, row []float64) {
		if rows++; tt == 0 {
			landedAtRowZero = landed.Load()
			close(rowZero)
		}
	}
	_, _, _, err := Run(runBase, transient.RMATEX, len(lanes), len(lanes), []Output{out}, func(i int, opts transient.Options) (*transient.Result, error) {
		if i > 0 {
			select {
			case <-rowZero:
			case <-time.After(10 * time.Second):
				return nil, errors.New("row 0 never left while the zero-state lanes were held")
			}
			defer landed.Add(1)
		}
		return stream(opts, lanes[i])
	})
	if err != nil {
		t.Fatal(err)
	}
	if landedAtRowZero != 0 {
		t.Errorf("%d zero-state lanes had landed when row 0 left", landedAtRowZero)
	}
	if rows != len(grid) {
		t.Errorf("%d rows left, want %d", rows, len(grid))
	}
}

// TestRunLaneErrorStopsTheRest: the first lane error cancels the lanes in
// flight, starts no further lane and is Run's error; no row of any output
// leaves after it, even from a lane that goes on delivering.
func TestRunLaneErrorStopsTheRest(t *testing.T) {
	grid := []float64{0, 1, 2, 3}
	boom := errors.New("boom")
	long := lane(grid, func(k int, t float64) float64 { return t + float64(k) })
	outs := []Output{
		{Plan: Plan{Probes: runBase.Probes, Addends: []Addend{{Coef: 2}}}, Lanes: []int{1}},
		{Plan: Plan{Probes: runBase.Probes, Addends: []Addend{{Coef: 1}, {Coef: 1}}}, Lanes: []int{0, 1}},
	}
	var rows atomic.Int32
	for o := range outs {
		outs[o].Emit = func(float64, []float64) { rows.Add(1) }
	}
	firstRow := make(chan struct{})
	var atCancel int32 = -1
	var calls atomic.Int32
	_, _, _, err := Run(runBase, transient.RMATEX, 3, 2, outs, func(i int, opts transient.Options) (*transient.Result, error) {
		calls.Add(1)
		switch i {
		case 0:
			<-firstRow
			opts.OnSample(grid[0], long.Probes[0])
			return nil, boom
		case 1:
			opts.OnSample(grid[0], long.Probes[0])
			close(firstRow)
			select {
			case <-opts.Ctx.Done():
			case <-time.After(10 * time.Second):
				return nil, errors.New("lane 1 was never canceled")
			}
			atCancel = rows.Load()
			for j := 1; j < len(grid); j++ { // an integrator that has not looked at ctx yet
				opts.OnSample(grid[j], long.Probes[j])
			}
			return long, nil
		}
		return nil, errors.New("lane 2 started after lane 0 failed")
	})
	if err != boom {
		t.Fatalf("Run returned %v, want the first lane error", err)
	}
	if c := calls.Load(); c != 2 {
		t.Errorf("%d lanes started, want 2", c)
	}
	if n := rows.Load(); atCancel < 0 || n != atCancel {
		t.Errorf("%d rows had left at the cancel, %d at the end", atCancel, n)
	}
}

// TestRunStatsRule: counters are the sum of the lanes', in lane order;
// FactorTime is summed, DCTime summed over the lanes that solve a DC point
// (none declared zero-state), and TransientTime is the slowest lane's.
func TestRunStatsRule(t *testing.T) {
	grid := []float64{0, 1}
	stats := []transient.Stats{
		{Steps: 3, SolvePairs: 10, Factorizations: 2, KrylovDims: []int{4, 5}, DCTime: 7, FactorTime: 11, TransientTime: 40},
		{Steps: 4, SolvePairs: 20, CacheHits: 2, KrylovDims: []int{6}, DCTime: 1000, FactorTime: 13, TransientTime: 90},
		{Steps: 5, SolvePairs: 30, CacheHits: 2, KrylovDims: []int{7}, DCTime: 2000, FactorTime: 17, TransientTime: 60},
	}
	out := Output{Plan: Plan{Grid: grid, Probes: runBase.Probes}}
	for i := range stats {
		out.Lanes = append(out.Lanes, i)
		out.Plan.Addends = append(out.Plan.Addends, Addend{Coef: 1, ZeroState: i > 0})
	}
	_, _, st, err := Run(runBase, transient.RMATEX, len(stats), 1, []Output{out}, func(i int, opts transient.Options) (*transient.Result, error) {
		r := lane(grid, func(k int, t float64) float64 { return t })
		r.Stats = stats[i]
		return stream(opts, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Steps != 12 || st.SolvePairs != 60 || st.Factorizations != 2 || st.CacheHits != 4 {
		t.Errorf("counters steps=%d pairs=%d factorizations=%d hits=%d, want 12 60 2 4", st.Steps, st.SolvePairs, st.Factorizations, st.CacheHits)
	}
	if dims := []int{4, 5, 6, 7}; len(st.KrylovDims) != len(dims) || st.MA() != 5.5 || st.MP() != 7 || st.KrylovDims[2] != 6 {
		t.Errorf("Krylov dims %v, want %v", st.KrylovDims, dims)
	}
	if st.FactorTime != 41 || st.DCTime != 7 || st.TransientTime != 90 {
		t.Errorf("factor %v dc %v transient %v, want 41ns 7ns 90ns", st.FactorTime, st.DCTime, st.TransientTime)
	}
}

// TestRunRefusesBeforeAnyLane: a shared bundle no lane could run under is
// refused once, up front, without calling the runner.
func TestRunRefusesBeforeAnyLane(t *testing.T) {
	for _, c := range []struct {
		name   string
		base   transient.Options
		method transient.Method
		want   string
	}{
		{"no Tstop", transient.Options{}, transient.RMATEX, "needs positive Tstop"},
		{"TR without Step", transient.Options{Tstop: 1}, transient.TRFixed, "needs positive Step"},
		{"OnSample", transient.Options{Tstop: 1, OnSample: func(float64, []float64) {}}, transient.RMATEX, "engine-owned"},
	} {
		_, _, _, err := Run(c.base, c.method, 1, 1, nil, func(int, transient.Options) (*transient.Result, error) {
			return nil, errors.New("a lane ran")
		})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want %q", c.name, err, c.want)
		}
	}
}
