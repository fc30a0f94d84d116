package dist

import (
	"context"
	"errors"
	"net"
	"net/rpc"
	"testing"
	"time"

	"github.com/matex-sim/matex/internal/transient"
)

// TestDrainGroup: in-flight calls finish before drain returns, and new
// entrants are rejected once draining has begun.
func TestDrainGroup(t *testing.T) {
	var g drainGroup
	if !g.enter() {
		t.Fatal("fresh group rejected a call")
	}
	done := make(chan bool, 1)
	go func() { done <- g.drain(5 * time.Second) }()
	// Give drain a moment to flip the state, then verify rejection.
	deadline := time.After(2 * time.Second)
	for {
		g.mu.Lock()
		draining := g.draining
		g.mu.Unlock()
		if draining {
			break
		}
		select {
		case <-deadline:
			t.Fatal("drain never flipped the draining flag")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if g.enter() {
		t.Fatal("draining group admitted a new call")
	}
	select {
	case <-done:
		t.Fatal("drain returned while a call was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	g.exit()
	select {
	case emptied := <-done:
		if !emptied {
			t.Fatal("drain reported a timeout, want clean drain")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("drain did not return after the last exit")
	}
}

// TestDrainGroupGraceTimeout: a stuck call makes drain give up after grace.
func TestDrainGroupGraceTimeout(t *testing.T) {
	var g drainGroup
	g.enter() // never exits
	if g.drain(30 * time.Millisecond) {
		t.Fatal("drain reported clean with a stuck call")
	}
}

// TestServeContextGracefulDrain: a canceled ServeContext lets a dispatched
// run finish, answers later calls with a draining error, and returns nil.
func TestServeContextGracefulDrain(t *testing.T) {
	sys := testSystem(t, 0.15)
	probes := testProbes(sys)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	ws := NewWorkerServer(nil)
	go func() { served <- ServeContext(ctx, l, ws, 5*time.Second) }()

	pool, err := NewRPCPool(context.Background(), []string{l.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	cfg := Config{Base: transient.Options{Tstop: 5e-9, Probes: probes}, Pool: pool}
	if _, _, err := Run(NewSystem(sys), transient.RMATEX, cfg); err != nil {
		t.Fatalf("run before drain: %v", err)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ServeContext returned %v after graceful drain, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeContext did not return after cancellation")
	}

	// The worker is gone: a fresh dispatch must fail (connection severed
	// and listener closed, so the redial buries the worker).
	if _, _, err := Run(NewSystem(sys), transient.RMATEX, cfg); err == nil {
		t.Fatal("run against a drained worker succeeded")
	}
}

// TestWorkerRejectsWhileDraining: once draining, the RPC surface answers
// with the draining sentinel rather than hanging or solving.
func TestWorkerRejectsWhileDraining(t *testing.T) {
	ws := NewWorkerServer(nil)
	ws.calls.drain(time.Millisecond)
	var reply RegisterReply
	err := ws.Register(&RegisterArgs{Key: Key{1}}, &reply)
	if err == nil || !isDrainingError(err) {
		t.Fatalf("Register on draining worker: got %v, want draining error", err)
	}
	var sreply SolveReply
	err = ws.Solve(&SolveArgs{System: Key{1}}, &sreply)
	if err == nil || !isDrainingError(err) {
		t.Fatalf("Solve on draining worker: got %v, want draining error", err)
	}
	// The wire form (rpc.ServerError) must classify the same way.
	if !isDrainingError(rpc.ServerError(err.Error())) {
		t.Fatal("draining error not recognized in its rpc.ServerError form")
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
