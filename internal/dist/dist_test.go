package dist

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/krylov"
	"github.com/matex-sim/matex/internal/pdn"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/transient"
	"github.com/matex-sim/matex/internal/waveform"
)

// testSystem builds an ibmpg1t-scale grid, like the root benchmarks.
func testSystem(t *testing.T, scale float64) *circuit.System {
	return testSystemCNode(t, scale, 0)
}

// testSystemCNode sets every node capacitor to cnode farads (0: the stock
// 10 fF). At 0.5 pF R-MATEX moves its ramps to the deviation treatment.
func testSystemCNode(t *testing.T, scale, cnode float64) *circuit.System {
	t.Helper()
	spec, err := pdn.IBMCase("ibmpg1t", scale)
	if err != nil {
		t.Fatal(err)
	}
	if cnode > 0 {
		spec.CNode = cnode
	}
	ckt, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := circuit.Stamp(ckt, circuit.StampOptions{CollapseSupplies: true})
	if err != nil {
		t.Fatal(err)
	}
	// Every subtask factors views of these matrices; catch a bad stamp here
	// rather than as a downstream solver failure.
	if err := sparse.CheckCSC(sys.C); err != nil {
		t.Fatalf("stamped C violates CSC invariants: %v", err)
	}
	if err := sparse.CheckCSC(sys.G); err != nil {
		t.Fatalf("stamped G violates CSC invariants: %v", err)
	}
	return sys
}

func testProbes(sys *circuit.System) []int {
	return []int{0, sys.NumNodes / 3, sys.NumNodes / 2, sys.NumNodes - 1}
}

// maxDeviation compares two probe traces sample by sample; the time grids
// must match exactly.
func maxDeviation(t *testing.T, a, b *transient.Result, nProbes int) float64 {
	t.Helper()
	if len(a.Times) != len(b.Times) {
		t.Fatalf("time grids differ: %d vs %d points", len(a.Times), len(b.Times))
	}
	var maxDiff float64
	for i := range a.Times {
		if a.Times[i] != b.Times[i] {
			t.Fatalf("time grids differ at %d: %g vs %g", i, a.Times[i], b.Times[i])
		}
		for k := 0; k < nProbes; k++ {
			if d := math.Abs(a.Probes[i][k] - b.Probes[i][k]); d > maxDiff {
				maxDiff = d
			}
		}
	}
	return maxDiff
}

// TestDistPartition checks the decomposition against the bump features the
// pdn generator stamps.
func TestDistPartition(t *testing.T) {
	sys := testSystem(t, 0.25)
	tasks := Partition(sys, 10e-9)
	if len(tasks) < 2 {
		t.Fatalf("expected several bump-feature groups, got %d", len(tasks))
	}
	seen := make(map[int]bool)
	total := 0
	for g, task := range tasks {
		if task.GroupID != g {
			t.Errorf("task %d has GroupID %d", g, task.GroupID)
		}
		if len(task.InputIdx) == 0 {
			t.Errorf("group %d is empty", g)
		}
		for _, k := range task.InputIdx {
			if seen[k] {
				t.Errorf("input %d assigned to two groups", k)
			}
			seen[k] = true
			if sys.Inputs[k].Supply {
				t.Errorf("supply input %d (%s) in a transient group", k, sys.Inputs[k].Name)
			}
			total++
		}
	}
	want := 0
	for i := range sys.Inputs {
		if !sys.Inputs[i].Supply {
			want++
		}
	}
	if total != want {
		t.Errorf("partition covers %d of %d time-varying inputs", total, want)
	}
}

// TestDistSuperposition is the paper's correctness claim: the superposed
// distributed R-MATEX run matches a plain R-MATEX run of the full system on
// the same probes and grid.
func TestDistSuperposition(t *testing.T) {
	sys := testSystem(t, 0.25)
	probes := testProbes(sys)
	opts := transient.Options{Tstop: 10e-9, Tol: 1e-8, Gamma: 1e-10, Probes: probes}

	ref, err := transient.Simulate(sys, transient.RMATEX, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := Run(NewSystem(sys), transient.RMATEX, Config{Base: transient.Options{Tstop: 10e-9, Tol: 1e-8, Gamma: 1e-10, Probes: probes}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Groups < 2 {
		t.Fatalf("degenerate decomposition: %d groups", rep.Groups)
	}
	if len(rep.TaskStats) != rep.Tasks || len(rep.PerTask) != rep.Tasks {
		t.Fatalf("TaskStats has %d entries, PerTask %d, for %d tasks", len(rep.TaskStats), len(rep.PerTask), rep.Tasks)
	}
	if d := maxDeviation(t, got, ref, len(probes)); d > 1e-6 {
		t.Errorf("superposition deviates %.3g V from the plain run (budget 1e-6)", d)
	}
	// The final full state superposes too.
	if len(got.Final) != sys.N {
		t.Fatalf("missing final state")
	}
	var dFinal float64
	for i := range got.Final {
		if d := math.Abs(got.Final[i] - ref.Final[i]); d > dFinal {
			dFinal = d
		}
	}
	if dFinal > 1e-6 {
		t.Errorf("final state deviates %.3g V", dFinal)
	}
}

// TestDistSuperpositionWhereRampsSwitchTreatment repeats the claim on the
// deck whose mesh time constants reach the segment scale: the plain run and
// every zero-state task choose their ramps' treatment from their own counts,
// tasks at different spots than the plain run, and must still superpose to
// it. The default tolerance, a two-node plan and a task per group.
func TestDistSuperpositionWhereRampsSwitchTreatment(t *testing.T) {
	sys := testSystemCNode(t, 1, 0.5e-12)
	opts := transient.Options{Tstop: 10e-9, Probes: testProbes(sys)}
	ref, err := transient.Simulate(sys, transient.RMATEX, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := &ref.Stats; 2*st.LanczosSpots <= len(st.KrylovDims) || st.DeviationSpots == len(st.KrylovDims) {
		t.Fatalf("plain run: %d of %d spots on deviation, %d on Lanczos: not a deck that switches", st.DeviationSpots, len(st.KrylovDims), st.LanczosSpots)
	}
	for _, workers := range []int{2, 64} {
		got, rep, err := Run(NewSystem(sys), transient.RMATEX, Config{Base: opts, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.DeviationSpots == 0 || got.Stats.InputPairs == 0 {
			t.Errorf("workers=%d: tasks report %d deviation spots, %d input pairs", workers, got.Stats.DeviationSpots, got.Stats.InputPairs)
		}
		if d := maxDeviation(t, got, ref, len(opts.Probes)); d > 1e-6 {
			t.Errorf("workers=%d (%d tasks): superposition deviates %.3g V from the plain run (budget 1e-6)", workers, rep.Tasks, d)
		}
	}
}

// TestDistSuperpositionIMATEX covers the second spectral-transform path
// (shared G factorization, deviation treatment throughout).
func TestDistSuperpositionIMATEX(t *testing.T) {
	sys := testSystem(t, 0.2)
	probes := testProbes(sys)
	ref, err := transient.Simulate(sys, transient.IMATEX, transient.Options{
		Tstop: 10e-9, Tol: 1e-8, Probes: probes,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Run(NewSystem(sys), transient.IMATEX, Config{Base: transient.Options{Tstop: 10e-9, Tol: 1e-8, Probes: probes}})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDeviation(t, got, ref, len(probes)); d > 1e-6 {
		t.Errorf("I-MATEX superposition deviates %.3g V (budget 1e-6)", d)
	}
}

// startWorker serves a WorkerServer on a loopback listener.
func startWorker(t *testing.T) (addr string, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ServeContext(context.Background(), l, NewWorkerServer(nil))
	return l.Addr().String(), func() { l.Close() }
}

// TestDistRPCLoopback runs the same decomposition over two loopback TCP
// workers and over a two-node in-process pool and demands bit-identical
// results: same node count ⇒ same plan ⇒ the identical computation in the
// identical order on both paths.
func TestDistRPCLoopback(t *testing.T) {
	sys := testSystem(t, 0.2)
	probes := testProbes(sys)
	cfg := Config{Base: transient.Options{Tstop: 10e-9, Tol: 1e-7, Gamma: 1e-10, Probes: probes}, Workers: 2}

	local, repL, err := Run(NewSystem(sys), transient.RMATEX, cfg)
	if err != nil {
		t.Fatal(err)
	}

	addr1, stop1 := startWorker(t)
	defer stop1()
	addr2, stop2 := startWorker(t)
	defer stop2()
	pool, err := NewRPCPool(context.Background(), []string{addr1, addr2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	cfg.Pool = pool
	remote, repR, err := Run(NewSystem(sys), transient.RMATEX, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if repR.Groups != repL.Groups || repR.Tasks != 2 || repL.Tasks != 2 {
		t.Fatalf("plans differ: %d groups in %d tasks vs %d in %d", repR.Groups, repR.Tasks, repL.Groups, repL.Tasks)
	}
	for i := range repR.PerTask {
		if !reflect.DeepEqual(repR.PerTask[i].Groups, repL.PerTask[i].Groups) {
			t.Fatalf("task %d holds groups %v over TCP, %v in-process", i, repR.PerTask[i].Groups, repL.PerTask[i].Groups)
		}
		if repR.PerTask[i].Worker == "" || repL.PerTask[i].Worker != "" {
			t.Errorf("task %d worker: %q over TCP, %q in-process", i, repR.PerTask[i].Worker, repL.PerTask[i].Worker)
		}
	}
	if repR.Retried != 0 {
		t.Errorf("unexpected retries on healthy workers: %d", repR.Retried)
	}
	if d := maxDeviation(t, remote, local, len(probes)); d != 0 {
		t.Errorf("TCP round-trip deviates %.3g V from in-process (want bit-identical)", d)
	}
}

// killableProxy forwards TCP bytes to a target until Kill is called, then
// severs every connection — a worker machine dying mid-task.
type killableProxy struct {
	l      net.Listener
	target string

	mu     sync.Mutex
	killed bool
	conns  []net.Conn
}

func newKillableProxy(t *testing.T, target string) *killableProxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &killableProxy{l: l, target: target}
	go p.acceptLoop()
	return p
}

func (p *killableProxy) addr() string { return p.l.Addr().String() }

func (p *killableProxy) acceptLoop() {
	for {
		conn, err := p.l.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.killed {
			p.mu.Unlock()
			conn.Close()
			continue
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			p.mu.Unlock()
			conn.Close()
			continue
		}
		p.conns = append(p.conns, conn, up)
		p.mu.Unlock()
		go func() { io.Copy(up, conn); up.Close() }()
		go func() { io.Copy(conn, up); conn.Close() }()
	}
}

// Kill severs all live connections and refuses new ones.
func (p *killableProxy) Kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.killed = true
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
	p.l.Close()
}

// TestDistWorkerFailureRetry kills one of two workers after registration;
// every subtask it had been assigned must be re-dispatched to the survivor,
// surface in Report.Retried, and the result must still match in-process.
func TestDistWorkerFailureRetry(t *testing.T) {
	sys := testSystem(t, 0.2)
	probes := testProbes(sys)
	// Two nodes in-process: the plan the two-worker pool gets.
	cfg := Config{Base: transient.Options{Tstop: 10e-9, Tol: 1e-7, Gamma: 1e-10, Probes: probes}, Workers: 2}

	local, _, err := Run(NewSystem(sys), transient.RMATEX, cfg)
	if err != nil {
		t.Fatal(err)
	}

	addrReal, stopReal := startWorker(t)
	defer stopReal()
	addrVictim, stopVictim := startWorker(t)
	defer stopVictim()
	proxy := newKillableProxy(t, addrVictim)

	pool, err := NewRPCPool(context.Background(), []string{proxy.addr(), addrReal})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// The victim dies after registration, before (and so also "during") its
	// first subtask: every dispatch routed to it must fail over.
	proxy.Kill()

	cfg.Pool = pool
	remote, rep, err := Run(NewSystem(sys), transient.RMATEX, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retried == 0 {
		t.Errorf("worker death did not surface in Report.Retried")
	}
	if d := maxDeviation(t, remote, local, len(probes)); d != 0 {
		t.Errorf("failover run deviates %.3g V from in-process", d)
	}
}

// TestDistRPCPoolRejectsDeadAddress: construction fails fast when a worker
// is unreachable, instead of deferring the surprise to Solve.
func TestDistRPCPoolRejectsDeadAddress(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()
	if _, err := NewRPCPool(context.Background(), []string{dead}); err == nil {
		t.Fatal("NewRPCPool succeeded against a closed listener")
	}
}

// TestDistNoTransientSources: a purely static system decomposes into zero
// groups and returns the DC baseline on the [0, tstop] grid.
func TestDistNoTransientSources(t *testing.T) {
	ckt := circuit.New("static")
	if err := ckt.AddR("r1", "a", "0", 100); err != nil {
		t.Fatal(err)
	}
	if err := ckt.AddC("c1", "a", "0", 1e-12); err != nil {
		t.Fatal(err)
	}
	ckt.AddI("i1", "a", "0", waveform.DC(1e-3))
	sys, err := circuit.Stamp(ckt, circuit.StampOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := Run(NewSystem(sys), transient.RMATEX, Config{Base: transient.Options{Tstop: 1e-9, Probes: []int{0}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Groups != 0 {
		t.Fatalf("static system produced %d groups", rep.Groups)
	}
	if len(res.Times) == 0 {
		t.Fatal("empty trace")
	}
	want := res.Probes[0][0]
	for i := range res.Times {
		if res.Probes[i][0] != want {
			t.Fatalf("static response drifts at t=%g", res.Times[i])
		}
	}
}

// TestDistFixedStepInterpolatedOntoGTS covers the misaligned-grid path of
// the superposition: fixed-step subtasks emit their own step grid (including the
// shortened final step landing exactly on Tstop), which Run linearly
// interpolates onto the GTS output grid. The distributed result must match
// an undistributed fixed-step reference interpolated the same way — and the
// superposed Final states must agree at Tstop, which the old round-to-
// nearest step count broke for non-divisible Tstop/Step.
func TestDistFixedStepInterpolatedOntoGTS(t *testing.T) {
	sys := testSystem(t, 0.2)
	probes := testProbes(sys)
	const tstop, step = 10e-9, 0.7e-9 // 10/0.7 is not an integer

	ref, err := transient.Simulate(sys, transient.TRFixed, transient.Options{
		Tstop: tstop, Step: step, Probes: probes,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := Run(NewSystem(sys), transient.TRFixed, Config{Base: transient.Options{Tstop: tstop, Step: step, Probes: probes}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Groups < 2 {
		t.Fatalf("degenerate decomposition: %d groups", rep.Groups)
	}
	// The GTS grid does not coincide with the 0.7ns step grid, so this run
	// exercised the interpolation branch; compare against the reference
	// interpolated onto the same GTS times.
	var maxDiff float64
	for i, tt := range got.Times {
		for k := range probes {
			want := ref.InterpProbe(tt, k)
			if d := math.Abs(got.Probes[i][k] - want); d > maxDiff {
				maxDiff = d
			}
		}
	}
	if maxDiff > 1e-6 {
		t.Errorf("interpolated fixed-step superposition deviates %.3g V (budget 1e-6)", maxDiff)
	}
	// Superposed Final is the state at Tstop exactly.
	var dFinal float64
	for i := range got.Final {
		if d := math.Abs(got.Final[i] - ref.Final[i]); d > dFinal {
			dFinal = d
		}
	}
	if dFinal > 1e-6 {
		t.Errorf("final state deviates %.3g V at Tstop", dFinal)
	}
}

// TestDistAdaptiveTRUnsetTolIsTheLTEDefault pins a behaviour change of the
// Config{Base} shape: Config no longer fills Tol with the MATEX budget, so an
// unset tolerance reaches the node as zero and adaptive TR applies its own
// LTE default, 1e-4, as an undistributed run does. (Config.withDefaults made
// it an explicit 1e-6: three times the steps for the same command line.)
func TestDistAdaptiveTRUnsetTolIsTheLTEDefault(t *testing.T) {
	sys := testSystem(t, 0.2)
	probes := testProbes(sys)
	run := func(tol float64) *transient.Result {
		res, _, err := Run(NewSystem(sys), transient.TRAdaptive, Config{Base: transient.Options{Tstop: 10e-9, Tol: tol, Probes: probes}, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	unset, loose, tight := run(0), run(1e-4), run(1e-6)
	if unset.Stats.Steps != loose.Stats.Steps || !reflect.DeepEqual(unset.Probes, loose.Probes) {
		t.Errorf("unset Tol took %d steps, an explicit 1e-4 %d: not the LTE default", unset.Stats.Steps, loose.Stats.Steps)
	}
	if tight.Stats.Steps <= unset.Stats.Steps {
		t.Errorf("explicit 1e-6 took %d steps, unset %d: the explicit tolerance was not honoured", tight.Stats.Steps, unset.Stats.Steps)
	}
}

// TestDistRepeatedRunZeroFactorizations is the distributed acceptance test
// for the factorization cache: against the same WorkerServer, with the
// scheduler reusing one Config.Base.Cache, the second Run must perform zero
// new factorizations anywhere — the workers serve every operator from their
// per-process cache and the scheduler's DC factorization hits too.
func TestDistRepeatedRunZeroFactorizations(t *testing.T) {
	sys := testSystem(t, 0.2)
	probes := testProbes(sys)

	addr, stop := startWorker(t)
	defer stop()
	pool, err := NewRPCPool(context.Background(), []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	cfg := Config{Base: transient.Options{Tstop: 10e-9, Tol: 1e-7, Gamma: 1e-10, Probes: probes, Cache: sparse.NewCache(0)}, Pool: pool}
	first, _, err := Run(NewSystem(sys), transient.RMATEX, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Factorizations == 0 {
		t.Fatal("first run reports no factorizations at all")
	}
	second, _, err := Run(NewSystem(sys), transient.RMATEX, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Factorizations != 0 {
		t.Errorf("second run against the same worker factorized %d times, want 0",
			second.Stats.Factorizations)
	}
	if second.Stats.CacheHits == 0 {
		t.Error("second run recorded no cache hits")
	}
	if d := maxDeviation(t, second, first, len(probes)); d != 0 {
		t.Errorf("cached repeat deviates %.3g V (want bit-identical)", d)
	}
}

// TestDistLocalPoolSharesFactorizations: even without a caller cache, one
// in-process Run factorizes G and (C+γG) exactly once across all subtasks.
func TestDistLocalPoolSharesFactorizations(t *testing.T) {
	sys := testSystem(t, 0.2)
	res, rep, err := Run(NewSystem(sys), transient.RMATEX, Config{Base: transient.Options{Tstop: 10e-9, Tol: 1e-7, Gamma: 1e-10, Probes: testProbes(sys)}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Groups < 2 {
		t.Fatalf("degenerate decomposition: %d groups", rep.Groups)
	}
	// One G (DC) + one C+γG, regardless of group count.
	if res.Stats.Factorizations != 2 {
		t.Errorf("in-process run factorized %d times for %d groups, want 2",
			res.Stats.Factorizations, rep.Groups)
	}
	if res.Stats.CacheHits == 0 {
		t.Error("subtasks recorded no cache hits on the shared pool cache")
	}
}

// TestDistKrylovLanczos: the Krylov method travels with the request, the
// zero-state subtasks take the fast path on their quiet segments, and the
// superposed waveform matches the pinned-Arnoldi distributed run to the
// solver tolerance class.
func TestDistKrylovLanczos(t *testing.T) {
	sys := testSystem(t, 0.25)
	probes := testProbes(sys)
	ref, _, err := Run(NewSystem(sys), transient.RMATEX, Config{Base: transient.Options{Tstop: 10e-9, Tol: 1e-9, Probes: probes, Krylov: krylov.MethodArnoldi}})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.LanczosSpots != 0 {
		t.Fatalf("arnoldi-pinned run aggregated %d Lanczos spots", ref.Stats.LanczosSpots)
	}
	res, _, err := Run(NewSystem(sys), transient.RMATEX, Config{Base: transient.Options{Tstop: 10e-9, Tol: 1e-9, Probes: probes, Krylov: krylov.MethodAuto}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.LanczosSpots == 0 {
		t.Error("distributed run aggregated no Lanczos spots (zero-state subtasks are mostly flat segments)")
	}
	var scale float64 = 1
	for i := range ref.Times {
		for k := range probes {
			if a := math.Abs(ref.Probes[i][k]); a > scale {
				scale = a
			}
		}
	}
	if d := maxDeviation(t, res, ref, len(probes)); d > 1e-8*scale {
		t.Errorf("lanczos vs arnoldi distributed waveforms differ by %g (scale %g)", d, scale)
	}
}

// oldRequest is a Request as an older coordinator encodes it, with the
// FactorKind and SolveWorkers fields this one no longer has.
type oldRequest struct {
	Method                  transient.Method
	Tstop, Step, Tol, Gamma float64
	MaxDim                  int
	Probes                  []int
	EvalTimes               []float64
	Ordering                sparse.Ordering
	Krylov                  krylov.Method
	FactorKind              int
	SolveWorkers            int
}

// TestOldCoordinatorRequestDecodes pins doc.go's wire-compatibility
// paragraph: an older coordinator's Request decodes with every surviving
// field intact and the dead ones dropped.
func TestOldCoordinatorRequestDecodes(t *testing.T) {
	old := oldRequest{
		Method: transient.RMATEX, Tstop: 1e-9, Tol: 1e-6, Gamma: 1e-10, MaxDim: 40,
		Probes: []int{3, 5}, EvalTimes: []float64{0, 5e-10, 1e-9},
		Ordering: sparse.OrderND, Krylov: krylov.Method(2), // the retired "lanczos" value
		FactorKind: 2, SolveWorkers: 4,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatalf("decoding an older coordinator's request: %v", err)
	}
	want := Request{
		Method: old.Method, Tstop: old.Tstop, Tol: old.Tol, Gamma: old.Gamma, MaxDim: old.MaxDim,
		Probes: old.Probes, EvalTimes: old.EvalTimes, Ordering: old.Ordering, Krylov: old.Krylov,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}

// TestOldCoordinatorDeletedMethodFails: a Request from a coordinator that
// still had backward or forward Euler (Method 1 or 2) decodes and reaches
// the worker, which answers "unknown method" — a solver answer over a
// healthy connection, not a transport failure, so the worker is neither
// buried nor handed the task again, and no other integrator runs it.
func TestOldCoordinatorDeletedMethodFails(t *testing.T) {
	sys := testSystem(t, 0.2)
	tasks := Partition(sys, 10e-9)
	if len(tasks) == 0 {
		t.Fatal("no groups to send")
	}
	addr, stop := startWorker(t)
	defer stop()
	pool, err := NewRPCPool(context.Background(), []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for _, m := range []transient.Method{1, 2} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(oldRequest{Method: m, Tstop: 10e-9, Step: 1e-11, FactorKind: 2, SolveWorkers: 4}); err != nil {
			t.Fatal(err)
		}
		var req Request
		if err := gob.NewDecoder(&buf).Decode(&req); err != nil {
			t.Fatalf("method %d: decoding an older coordinator's request: %v", m, err)
		}
		_, err := pool.Solve(context.Background(), NewSystem(sys), tasks[0], req)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown method %d", m)) || isTransportError(err) {
			t.Errorf("method %d: got %v, want the worker's unknown-method answer", m, err)
		}
		if n := pool.Nodes(); n != 1 {
			t.Errorf("method %d: %d live workers after the refusal, want 1", m, n)
		}
	}
}
