package dist

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/transient"
	"github.com/matex-sim/matex/internal/waveform"
)

// unionSize is the reference cost: the size of the union of the member
// groups' spot lists, by sort-and-merge.
func unionSize(spots [][]float64, members []int) int {
	var all []float64
	for _, g := range members {
		all = append(all, spots[g]...)
	}
	return len(waveform.MergeSpots(all, math.Inf(1), waveform.SpotEps, false))
}

// checkPlan asserts the planner's contract on one instance.
func checkPlan(t *testing.T, groups []Task, spots [][]float64, nodes int) {
	t.Helper()
	tasks, plan := planTasks(groups, spots, nodes)
	if want := min(len(groups), max(nodes, 1)); len(tasks) != want || len(plan) != want {
		t.Fatalf("%d groups on %d nodes: %d tasks, %d rows, want %d", len(groups), nodes, len(tasks), len(plan), want)
	}
	if tasks2, plan2 := planTasks(groups, spots, nodes); !reflect.DeepEqual(tasks, tasks2) || !reflect.DeepEqual(plan, plan2) {
		t.Fatalf("planner is not deterministic:\n%v %v\n%v %v", tasks, plan, tasks2, plan2)
	}

	// Every group in exactly one task, every input of a group with it.
	owner := map[int]int{}
	worst := 0
	for ti, row := range plan {
		var inputs []int
		for _, g := range row.Groups {
			if prev, dup := owner[g]; dup {
				t.Fatalf("group %d in tasks %d and %d", g, prev, ti)
			}
			owner[g] = ti
			inputs = append(inputs, groups[g].InputIdx...)
		}
		if !sort.IntsAreSorted(row.Groups) || tasks[ti].GroupID != row.Groups[0] {
			t.Fatalf("task %d: members %v, GroupID %d", ti, row.Groups, tasks[ti].GroupID)
		}
		if !reflect.DeepEqual(tasks[ti].InputIdx, inputs) {
			t.Fatalf("task %d inputs %v, its groups hold %v", ti, tasks[ti].InputIdx, inputs)
		}
		if spots != nil {
			if want := unionSize(spots, row.Groups); row.Spots != want {
				t.Fatalf("task %d charged %d spots, its union has %d", ti, row.Spots, want)
			}
		}
		worst = max(worst, row.Spots)
	}
	if len(owner) != len(groups) {
		t.Fatalf("plan covers %d of %d groups", len(owner), len(groups))
	}
	for i := 1; i < len(tasks); i++ {
		if tasks[i-1].GroupID >= tasks[i].GroupID {
			t.Fatalf("tasks not ordered by lowest member: %d before %d", tasks[i-1].GroupID, tasks[i].GroupID)
		}
	}
	if nodes >= len(groups) && !reflect.DeepEqual(tasks, groups) {
		t.Fatalf("nodes >= groups changed the groups: %v -> %v", groups, tasks)
	}
	if spots == nil {
		return
	}

	// Never worse than one task holding everything, nor than cutting the
	// time-ordered groups into equal-count runs.
	all := make([]int, len(groups))
	order := make([]int, len(groups))
	for i := range all {
		all[i], order[i] = i, i
	}
	if one := unionSize(spots, all); worst > one {
		t.Fatalf("largest task has %d spots, a single task would have %d", worst, one)
	}
	sort.SliceStable(order, func(a, b int) bool { return spots[order[a]][0] < spots[order[b]][0] })
	equal := 0
	for p, n := 0, len(tasks); p < n; p++ {
		equal = max(equal, unionSize(spots, order[p*len(order)/n:(p+1)*len(order)/n]))
	}
	if worst > equal {
		t.Fatalf("largest task has %d spots, the equal-count cut %d", worst, equal)
	}
}

// spotGroups wraps hand-written spot lists as one-input groups.
func spotGroups(spots [][]float64) []Task {
	groups := make([]Task, len(spots))
	for g := range groups {
		groups[g] = Task{GroupID: g, InputIdx: []int{g}}
	}
	return groups
}

func TestPlanTable(t *testing.T) {
	// Two early and two late groups, listed interleaved: the cut must pair
	// them by time (5 spots a task), not by position (8 spots a task).
	early1, early2 := []float64{1, 2, 3, 10}, []float64{1, 2, 4, 10}
	late1, late2 := []float64{6, 7, 8, 10}, []float64{6, 7, 9, 10}
	spots := [][]float64{late1, early1, late2, early2}
	_, plan := planTasks(spotGroups(spots), spots, 2)
	if len(plan) != 2 || !reflect.DeepEqual(plan[0].Groups, []int{0, 2}) || !reflect.DeepEqual(plan[1].Groups, []int{1, 3}) {
		t.Fatalf("plan %+v, want the late pair {0,2} and the early pair {1,3}", plan)
	}
	if plan[0].Spots != 5 || plan[1].Spots != 5 {
		t.Fatalf("charged %d and %d spots, want 5 and 5", plan[0].Spots, plan[1].Spots)
	}

	// Cost-balanced, not count-balanced: one busy group against four that
	// share their spots.
	busy := []float64{1, 2, 3, 4, 5, 6, 10}
	quiet := []float64{7, 8, 10}
	spots = [][]float64{busy, quiet, quiet, quiet, quiet}
	_, plan = planTasks(spotGroups(spots), spots, 2)
	if !reflect.DeepEqual(plan[0].Groups, []int{0}) || plan[0].Spots != 7 || plan[1].Spots != 3 {
		t.Fatalf("plan %+v, want the busy group alone", plan)
	}

	// Without spots (fixed-step methods) the cut balances input counts.
	groups := []Task{
		{GroupID: 0, InputIdx: []int{0, 1, 2, 3, 4}},
		{GroupID: 1, InputIdx: []int{5}}, {GroupID: 2, InputIdx: []int{6}},
		{GroupID: 3, InputIdx: []int{7}}, {GroupID: 4, InputIdx: []int{8}},
	}
	_, plan = planTasks(groups, nil, 2)
	if !reflect.DeepEqual(plan[0].Groups, []int{0}) || !reflect.DeepEqual(plan[1].Groups, []int{1, 2, 3, 4}) {
		t.Fatalf("fixed-step plan %+v, want {0} and {1,2,3,4}", plan)
	}

	for nodes := -1; nodes <= 7; nodes++ {
		checkPlan(t, spotGroups(spots), spots, nodes)
		checkPlan(t, groups, nil, nodes)
	}
	if tasks, _ := planTasks(nil, nil, 4); len(tasks) != 0 {
		t.Fatalf("no groups planned into %d tasks", len(tasks))
	}
}

// TestPlanQuick checks the planner's contract over random pulse sets
// grouped the way Partition groups them.
func TestPlanQuick(t *testing.T) {
	const tstop = 10e-9
	prop := func(seed int64, nodes uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		// A handful of bump shapes on a 100 ps lattice, some periodic, some
		// sharing a delay, drawn by 1-40 sources.
		shapes := make([]*waveform.Pulse, 1+rng.Intn(12))
		for i := range shapes {
			shapes[i] = &waveform.Pulse{
				V2:    1e-3,
				Delay: float64(rng.Intn(60)) * 1e-10,
				Rise:  float64(1+rng.Intn(3)) * 1e-10,
				Width: float64(1+rng.Intn(5)) * 1e-10,
				Fall:  float64(1+rng.Intn(3)) * 1e-10,
			}
			if rng.Intn(4) == 0 {
				shapes[i].Period = float64(20+rng.Intn(30)) * 1e-10
			}
		}
		waves := make([]waveform.Waveform, 1+rng.Intn(40))
		for i := range waves {
			p := *shapes[rng.Intn(len(shapes))]
			p.V2 *= 0.5 + rng.Float64()
			waves[i] = &p
		}
		members := waveform.Group(waves, tstop)
		groups := make([]Task, len(members))
		spots := make([][]float64, len(members))
		for g, m := range members {
			groups[g] = Task{GroupID: g, InputIdx: m}
			var all []float64
			for _, i := range m {
				all = waves[i].Transitions(all, tstop)
			}
			spots[g] = waveform.MergeSpots(all, tstop, waveform.SpotEps, true)[1:]
		}
		checkPlan(t, groups, spots, int(nodes%16))
		checkPlan(t, groups, nil, int(nodes%16))
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// mixedSystem is a small RC ladder driven by every kind of source the
// decomposition meets: one-shot pulses of several shapes (two of them
// sharing one), a periodic pulse, and a non-pulse PWL source.
func mixedSystem(t *testing.T) *circuit.System {
	t.Helper()
	ckt := circuit.New("mixed sources")
	const n = 24
	node := func(i int) string { return fmt.Sprintf("n%d", i) }
	ckt.AddV("vdd", "vdd", "0", waveform.DC(1.8))
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(ckt.AddR("rpad", "vdd", node(0), 0.05))
	for i := 0; i < n; i++ {
		must(ckt.AddC(fmt.Sprintf("c%d", i), node(i), "0", 2e-12))
		if i > 0 {
			must(ckt.AddR(fmt.Sprintf("r%d", i), node(i-1), node(i), 0.2))
		}
	}
	pwl, err := waveform.NewPWL([]float64{0, 1.3e-9, 2.1e-9, 4.4e-9, 4.9e-9}, []float64{0, 0, 4e-3, 1e-3, 0})
	must(err)
	sources := []waveform.Waveform{
		&waveform.Pulse{V2: 5e-3, Delay: 0.5e-9, Rise: 0.1e-9, Width: 0.4e-9, Fall: 0.2e-9},
		&waveform.Pulse{V2: 3e-3, Delay: 0.5e-9, Rise: 0.1e-9, Width: 0.4e-9, Fall: 0.2e-9},
		&waveform.Pulse{V2: 4e-3, Delay: 2.0e-9, Rise: 0.2e-9, Width: 0.3e-9, Fall: 0.1e-9},
		&waveform.Pulse{V2: 2e-3, Delay: 6.5e-9, Rise: 0.1e-9, Width: 1.0e-9, Fall: 0.3e-9},
		&waveform.Pulse{V2: 6e-3, Delay: 0.8e-9, Rise: 0.1e-9, Width: 0.5e-9, Fall: 0.1e-9, Period: 2.5e-9},
		&waveform.Pulse{V1: 1e-3, V2: 3e-3, Delay: 3.3e-9, Rise: 0.3e-9, Width: 0.2e-9, Fall: 0.3e-9},
		pwl,
	}
	for i, w := range sources {
		ckt.AddI(fmt.Sprintf("i%d", i), node((3*i+2)%n), "0", w)
	}
	sys, err := circuit.Stamp(ckt, circuit.StampOptions{CollapseSupplies: true})
	must(err)
	return sys
}

// TestDistPlansAgreeWithOneShot: whatever node count the groups are cut
// for, the superposed waveform matches the undistributed run — to the
// Krylov tolerance class for the MATEX methods, to rounding for TR, whose
// fixed-step discretisation superposes exactly.
func TestDistPlansAgreeWithOneShot(t *testing.T) {
	const tstop = 10e-9
	systems := []struct {
		name   string
		sys    *circuit.System
		probes []int
	}{
		{name: "ibmpg1t"},
		{name: "pwl+periodic", sys: mixedSystem(t), probes: []int{0, 7, 23}},
	}
	systems[0].sys = testSystem(t, 0.2)
	systems[0].probes = testProbes(systems[0].sys)

	methods := []struct {
		m      transient.Method
		step   float64
		budget float64
	}{
		{m: transient.RMATEX, budget: 1e-6},
		{m: transient.IMATEX, budget: 1e-6},
		{m: transient.TRFixed, step: 20e-12, budget: 1e-9},
	}
	for _, s := range systems {
		groups := len(Partition(s.sys, tstop))
		if groups < 4 {
			t.Fatalf("%s: only %d groups", s.name, groups)
		}
		for _, m := range methods {
			ref, err := transient.Simulate(s.sys, m.m, transient.Options{
				Tstop: tstop, Step: m.step, Tol: 1e-8, Probes: s.probes,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, nodes := range []int{1, 2, 3, groups, groups + 5} {
				got, rep, err := Run(NewSystem(s.sys), m.m, Config{Base: transient.Options{Tstop: tstop, Step: m.step, Tol: 1e-8, Probes: s.probes}, Workers: nodes})
				if err != nil {
					t.Fatalf("%s %v on %d nodes: %v", s.name, m.m, nodes, err)
				}
				if rep.Groups != groups || rep.Tasks != min(groups, nodes) || len(rep.PerTask) != rep.Tasks || len(rep.TaskStats) != rep.Tasks {
					t.Fatalf("%s %v on %d nodes: groups=%d tasks=%d rows=%d stats=%d",
						s.name, m.m, nodes, rep.Groups, rep.Tasks, len(rep.PerTask), len(rep.TaskStats))
				}
				var worst float64
				for i, tt := range got.Times {
					for k := range s.probes {
						worst = math.Max(worst, math.Abs(got.Probes[i][k]-ref.InterpProbe(tt, k)))
					}
				}
				if worst > m.budget || math.IsNaN(worst) {
					t.Errorf("%s %v on %d nodes deviates %.3g V from the one-shot run (budget %g)", s.name, m.m, nodes, worst, m.budget)
				}
			}
		}
	}
}

// TestDistPlanSavesSolvePairs is the cost-model claim in counts: cutting
// for two nodes pays fewer substitution pairs than one task per group, and
// at most a tenth more than not distributing at all.
func TestDistPlanSavesSolvePairs(t *testing.T) {
	sys := testSystem(t, 0.25)
	cfg := Config{Base: transient.Options{Tstop: 10e-9, Tol: 1e-8, Gamma: 1e-10}}
	oneShot, err := transient.Simulate(sys, transient.RMATEX, transient.Options{Tstop: 10e-9, Tol: 1e-8, Gamma: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 2
	two, repTwo, err := Run(NewSystem(sys), transient.RMATEX, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 64
	perGroup, repPer, err := Run(NewSystem(sys), transient.RMATEX, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if repTwo.Tasks != 2 || repPer.Tasks != repPer.Groups || repPer.Groups < 4 {
		t.Fatalf("tasks: %d on two nodes, %d of %d groups on 64", repTwo.Tasks, repPer.Tasks, repPer.Groups)
	}
	if two.Stats.SolvePairs >= perGroup.Stats.SolvePairs {
		t.Errorf("two nodes paid %d solve pairs, one task per group %d", two.Stats.SolvePairs, perGroup.Stats.SolvePairs)
	}
	if limit := oneShot.Stats.SolvePairs * 11 / 10; two.Stats.SolvePairs > limit {
		t.Errorf("two nodes paid %d solve pairs, the one-shot run %d (limit %d)", two.Stats.SolvePairs, oneShot.Stats.SolvePairs, limit)
	}
	for i, task := range repTwo.PerTask {
		if got := repTwo.TaskStats[i].Spots(); got != task.Spots {
			t.Errorf("task %d generated %d subspaces, the planner charged %d spots", i, got, task.Spots)
		}
	}
}

// gatePool is a fake pool of a fixed node count whose Solve holds every
// call until as many are in flight as the test expects, recording the peak.
type gatePool struct {
	nodes, want int

	mu       sync.Mutex
	inFlight int
	peak     int
	full     chan struct{}
}

func (p *gatePool) Nodes() int { return p.nodes }

func (p *gatePool) Solve(ctx context.Context, _ *System, task Task, req Request) (*TaskResult, error) {
	p.mu.Lock()
	p.inFlight++
	p.peak = max(p.peak, p.inFlight)
	if p.inFlight == p.want {
		close(p.full)
	}
	p.mu.Unlock()
	select {
	case <-p.full:
	case <-time.After(2 * time.Second): // the bound was tighter than the cluster
	}
	p.mu.Lock()
	p.inFlight--
	p.mu.Unlock()
	return &TaskResult{Result: &transient.Result{}}, nil
}

// TestDistInFlightFollowsPool: with Config.Workers unset, the in-flight
// bound is the pool's node count, not the coordinator's GOMAXPROCS — a
// one-core coordinator keeps a four-worker cluster busy, and a many-core
// one does not pile more than one task on each of two workers.
func TestDistInFlightFollowsPool(t *testing.T) {
	sys := testSystem(t, 0.2)
	if groups := len(Partition(sys, 10e-9)); groups < 4 {
		t.Fatalf("only %d groups", groups)
	}
	for _, c := range []struct{ procs, nodes int }{{1, 4}, {8, 2}} {
		prev := runtime.GOMAXPROCS(c.procs)
		pool := &gatePool{nodes: c.nodes, want: c.nodes, full: make(chan struct{})}
		_, rep, err := Run(NewSystem(sys), transient.RMATEX, Config{Base: transient.Options{Tstop: 10e-9}, Pool: pool})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Tasks != c.nodes || pool.peak != c.nodes {
			t.Errorf("GOMAXPROCS %d, %d nodes: %d tasks, peak %d in flight", c.procs, c.nodes, rep.Tasks, pool.peak)
		}
	}
}

// TestDistRejectsEngineOwnedBase: the checkpoint hook and the input mask are
// set per subtask; a caller's would fire per task with a partial response.
// (Base.OnSample is the superposition's hook: see stream_test.go.)
func TestDistRejectsEngineOwnedBase(t *testing.T) {
	sys := testSystem(t, 0.15)
	for name, base := range map[string]transient.Options{
		"OnCheckpoint": {Tstop: 1e-9, OnCheckpoint: func(transient.Checkpoint) error { return nil }},
		"ActiveInputs": {Tstop: 1e-9, ActiveInputs: make([]bool, len(sys.Inputs))},
	} {
		if _, _, err := Run(NewSystem(sys), transient.RMATEX, Config{Base: base}); err == nil {
			t.Errorf("engine-owned Base.%s accepted", name)
		}
	}
	// A fixed-step method without a step is refused up front — before the
	// pool is asked for anything, and on a deck whose plan has no task that
	// could refuse it — not run as a silent R-MATEX.
	pool := &gatePool{nodes: 2, want: 2, full: make(chan struct{})}
	_, _, err := Run(NewSystem(sys), transient.TRFixed, Config{Base: transient.Options{Tstop: 1e-9}, Pool: pool})
	if err == nil || !strings.Contains(err.Error(), "needs positive Step") || pool.peak != 0 {
		t.Errorf("TRFixed without Step: err %v after %d pool calls", err, pool.peak)
	}
	quiet := *sys
	quiet.Inputs = append([]circuit.Input(nil), sys.Inputs...)
	for i := range quiet.Inputs {
		quiet.Inputs[i].Supply = true // nothing left to distribute
	}
	if len(Partition(&quiet, 1e-9)) != 0 {
		t.Fatal("the quiet deck still has groups")
	}
	if _, _, err := Run(NewSystem(&quiet), transient.TRFixed, Config{Base: transient.Options{Tstop: 1e-9}}); err == nil {
		t.Error("TRFixed without Step returned the DC answer of a deck with no tasks")
	}
}
