package dist

import (
	"context"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/matex-sim/matex/internal/faultinject"
	"github.com/matex-sim/matex/internal/transient"
)

// The dist chaos suite: every transport-side faultinject point (DialFail,
// RPCSever, WorkerCrash) is armed against real loopback workers, and each
// run must end in one of exactly two ways — the correct superposed waveform
// (within 1e-12 of the no-fault run) or a clean typed error — never a hang,
// never silent corruption. The journal-side points (CheckpointWrite,
// JournalAppend) are exercised by internal/serve's journal tests.

// guardGoroutines snapshots the goroutine count and returns a check that
// fails if it has not come back to (near) the baseline — no chaos test may
// leak a dispatcher, prober or handler goroutine. Call it after the test's
// pool is closed.
func guardGoroutines(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base+2 {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d at start, %d now\n%s", base, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(20 * time.Millisecond)
		}
		// The count allows two strays; the pool's own goroutines (the prober
		// every pool now runs) get none: Close has joined them.
		buf := make([]byte, 1<<20)
		if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "dist.(*rpcPool)") {
			t.Fatalf("a pool goroutine survived Close:\n%s", stacks)
		}
	}
}

// TestFaultDialFailAtConstruction: an injected dial failure at pool
// construction surfaces as the typed injected error — the caller can tell
// the planted fault from a real unreachable worker.
func TestFaultDialFailAtConstruction(t *testing.T) {
	leak := guardGoroutines(t)
	defer leak()
	addr, stop := startWorker(t)
	defer stop()

	reg := faultinject.New(1)
	reg.Arm(faultinject.DialFail, faultinject.Plan{})
	tune := defaultTuning
	tune.fault = reg
	_, err := newRPCPool(context.Background(), []string{addr}, tune)
	if err == nil || !faultinject.IsInjected(err) {
		t.Fatalf("construction against a dial fault returned %v, want an injected error", err)
	}
	if reg.Fired(faultinject.DialFail) == 0 {
		t.Fatal("dial-fail point never fired")
	}
}

// retriedTask returns the row of the one task the fault hit, which must be
// a merged one: the fault tests run two-node plans over several groups.
func retriedTask(t *testing.T, rep *Report) TaskReport {
	t.Helper()
	if rep.Tasks != 2 || rep.Groups <= 2 {
		t.Fatalf("%d groups in %d tasks: not a merged two-node plan", rep.Groups, rep.Tasks)
	}
	var hit []TaskReport
	for _, task := range rep.PerTask {
		if task.Retried > 0 {
			hit = append(hit, task)
		}
	}
	if len(hit) != 1 || len(hit[0].Groups) < 2 || rep.Retried != hit[0].Retried {
		t.Fatalf("retried=%d over rows %+v, want one merged task carrying them", rep.Retried, rep.PerTask)
	}
	return hit[0]
}

// TestFaultRPCSeverRetriesAndMatches severs one of two workers' connection
// mid-RPC (TCP reset with the reply in flight) while it holds a merged
// task: the pool must revive the worker, re-dispatch the task whole, count
// the retry, and still produce the no-fault waveform.
func TestFaultRPCSeverRetriesAndMatches(t *testing.T) {
	leak := guardGoroutines(t)
	// Full scale: the sever lands right after the request is written, and a
	// task must still be running then or its reply beats the cut.
	sys := testSystem(t, 1)
	probes := testProbes(sys)
	cfg := Config{Base: transient.Options{Tstop: 10e-9, Tol: 1e-7, Gamma: 1e-10, Probes: probes}, Workers: 2}

	local, _, err := Run(NewSystem(sys), transient.RMATEX, cfg)
	if err != nil {
		t.Fatal(err)
	}

	addr1, stop1 := startWorker(t)
	addr2, stop2 := startWorker(t)
	defer func() { // after pool.Close below: both serve loops must be gone before the leak check
		stop1()
		stop2()
		leak()
	}()
	reg := faultinject.New(2)
	reg.Arm(faultinject.RPCSever, faultinject.Plan{After: 1, Times: 1}) // second dispatch loses its connection
	tune := defaultTuning
	tune.fault, tune.backoffBase = reg, time.Millisecond
	pool, err := newRPCPool(context.Background(), []string{addr1, addr2}, tune)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	cfg.Pool = pool
	remote, rep, err := Run(NewSystem(sys), transient.RMATEX, cfg)
	if err != nil {
		t.Fatalf("run with a severed RPC failed outright: %v", err)
	}
	if reg.Fired(faultinject.RPCSever) != 1 {
		t.Fatalf("sever fired %d times, want 1", reg.Fired(faultinject.RPCSever))
	}
	retriedTask(t, rep)
	if d := maxDeviation(t, remote, local, len(probes)); d > 1e-12 {
		t.Errorf("post-sever waveform deviates %.3g V (budget 1e-12)", d)
	}
}

// startCrashableWorker serves a WorkerServer under ServeContext with the
// fault registry installed, returning the serve loop's error channel so the
// test can assert the injected death was reported.
func startCrashableWorker(t *testing.T, reg *faultinject.Registry) (addr string, served chan error, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkerServer(nil)
	ws.SetFaults(reg)
	ctx, cancel := context.WithCancel(context.Background())
	served = make(chan error, 1)
	go func() { served <- ServeContext(ctx, l, ws, time.Second) }()
	return l.Addr().String(), served, func() { cancel(); l.Close() }
}

// TestFaultWorkerCrashFailsOver crashes one of two workers as it completes
// its merged task — the serving loop severs every connection without
// draining, exactly kill -9 from the scheduler's side. The task must land
// whole on the survivor, count the retries, match the no-fault waveform to
// 1e-12, and the crashed worker's serve loop must report the injected death.
func TestFaultWorkerCrashFailsOver(t *testing.T) {
	leak := guardGoroutines(t)
	sys := testSystem(t, 0.2)
	probes := testProbes(sys)
	cfg := Config{Base: transient.Options{Tstop: 10e-9, Tol: 1e-7, Gamma: 1e-10, Probes: probes}, Workers: 2}

	local, _, err := Run(NewSystem(sys), transient.RMATEX, cfg)
	if err != nil {
		t.Fatal(err)
	}

	reg := faultinject.New(3)
	reg.Arm(faultinject.WorkerCrash, faultinject.Plan{}) // die on the first completed subtask
	crashAddr, served, stopCrash := startCrashableWorker(t, reg)
	defer stopCrash()
	survivor, stopSurvivor := startWorker(t)
	defer stopSurvivor()

	tune := defaultTuning
	tune.backoffBase, tune.redialAttempts = time.Millisecond, 1
	pool, err := newRPCPool(context.Background(), []string{crashAddr, survivor}, tune)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		pool.Close()
		leak()
	}()

	cfg.Pool = pool
	remote, rep, err := Run(NewSystem(sys), transient.RMATEX, cfg)
	if err != nil {
		t.Fatalf("run did not survive the worker crash: %v", err)
	}
	if got := retriedTask(t, rep).Worker; got != survivor {
		t.Errorf("crash-interrupted task finished on %q, want the survivor %s", got, survivor)
	}
	if d := maxDeviation(t, remote, local, len(probes)); d > 1e-12 {
		t.Errorf("failover waveform deviates %.3g V (budget 1e-12)", d)
	}
	select {
	case err := <-served:
		if !faultinject.IsInjected(err) {
			t.Fatalf("crashed worker's serve loop returned %v, want the injected death", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("crashed worker's serve loop never returned")
	}
}

// TestFaultBuriedWorkerRevivedByHealthProbe: a severed connection whose
// revival dial also fails buries the only worker; the background health
// prober must re-admit it once dials succeed again, after which runs
// complete with the correct waveform — a restarted matexd rejoins the
// rotation without any task having to fail onto it.
func TestFaultBuriedWorkerRevivedByHealthProbe(t *testing.T) {
	leak := guardGoroutines(t)
	sys := testSystem(t, 0.2)
	probes := testProbes(sys)
	// One node in-process: the plan the one-worker pool gets.
	cfg := Config{Base: transient.Options{Tstop: 10e-9, Tol: 1e-7, Gamma: 1e-10, Probes: probes}, Workers: 1}

	local, _, err := Run(NewSystem(sys), transient.RMATEX, cfg)
	if err != nil {
		t.Fatal(err)
	}

	addr, stop := startWorker(t)
	defer stop()
	reg := faultinject.New(4)
	reg.Arm(faultinject.RPCSever, faultinject.Plan{Times: 1})           // first dispatch loses its connection...
	reg.Arm(faultinject.DialFail, faultinject.Plan{After: 1, Times: 1}) // ...and the revival dial fails: buried
	pool, err := newRPCPool(context.Background(), []string{addr}, rpcTuning{
		fault: reg, backoffBase: time.Millisecond, redialAttempts: 1,
		probeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		pool.Close()
		leak()
	}()
	cfg.Pool = pool

	// The first run races the prober: it either fails cleanly (worker still
	// buried) or succeeds (prober re-admitted it mid-run). Both are
	// acceptable; hanging or corrupting is not.
	if res, _, err := Run(NewSystem(sys), transient.RMATEX, cfg); err == nil {
		if d := maxDeviation(t, res, local, len(probes)); d > 1e-12 {
			t.Fatalf("first run deviates %.3g V", d)
		}
	}

	// Eventually a probe dial passes (the dial fault is spent) and the
	// worker is back in rotation: runs succeed with zero retries.
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, rep, err := Run(NewSystem(sys), transient.RMATEX, cfg)
		if err == nil {
			if rep.Retried != 0 {
				t.Fatalf("post-revival run still retried %d times", rep.Retried)
			}
			if d := maxDeviation(t, res, local, len(probes)); d > 1e-12 {
				t.Fatalf("post-revival waveform deviates %.3g V (budget 1e-12)", d)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("health prober never re-admitted the worker: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if reg.Fired(faultinject.DialFail) != 1 {
		t.Fatalf("revival dial fault fired %d times, want exactly 1", reg.Fired(faultinject.DialFail))
	}
	if checks := reg.Checks(faultinject.DialFail); checks < 3 {
		t.Fatalf("only %d dial checks: the health prober never probed", checks)
	}
}
