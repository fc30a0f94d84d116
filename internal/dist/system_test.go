package dist

import (
	"context"
	"net"
	"net/rpc"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/memo"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/transient"
)

// The circuit travels with the task: these tests pin the one way a worker
// learns a system (Solve answers "unknown system", the pool registers the
// blob there and sends the task again), the worker's byte bound, the wire
// generation, and the probe round a task makes when every worker is buried.

// countingWorker is a WorkerServer that counts the blobs shipped to it.
type countingWorker struct {
	ws        *WorkerServer
	registers atomic.Int64
}

func (c *countingWorker) Register(args *RegisterArgs, reply *RegisterReply) error {
	c.registers.Add(1)
	return c.ws.Register(args, reply)
}

func (c *countingWorker) Solve(args *SolveArgs, reply *SolveReply) error {
	return c.ws.Solve(args, reply)
}

// serveAt serves rcvr under the given service name on addr ("127.0.0.1:0"
// for a fresh port) until stop, which severs every connection the way a
// killed matexd does and returns once the port is free again.
func serveAt(t *testing.T, addr, service string, rcvr any) (string, func()) {
	t.Helper()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName(service, rcvr); err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
		wg    sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				srv.ServeConn(conn)
			}()
		}
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			l.Close()
			mu.Lock()
			for _, c := range conns {
				c.Close()
			}
			mu.Unlock()
			wg.Wait()
		})
	}
	t.Cleanup(stop)
	return l.Addr().String(), stop
}

// startCountingWorker serves a fresh counting worker on addr.
func startCountingWorker(t *testing.T, addr string) (string, *countingWorker, func()) {
	t.Helper()
	cw := &countingWorker{ws: NewWorkerServer(nil)}
	addr, stop := serveAt(t, addr, rpcService, cw)
	return addr, cw, stop
}

// distinctSystems returns n systems over the same matrices whose first load
// differs in its coefficients, so each encodes to its own key at the same
// size.
func distinctSystems(t *testing.T, n int) []*circuit.System {
	t.Helper()
	base := testSystem(t, 0.1)
	out := make([]*circuit.System, n)
	for i := range out {
		sys := *base
		sys.Inputs = append([]circuit.Input(nil), base.Inputs...)
		for k := range sys.Inputs {
			if !sys.Inputs[k].Supply {
				coefs := append([]float64(nil), sys.Inputs[k].Coefs...)
				for j := range coefs {
					coefs[j] *= 1 + float64(i)/8
				}
				sys.Inputs[k].Coefs = coefs
				break
			}
		}
		out[i] = &sys
	}
	return out
}

// TestUnknownSystemRegistersOnce: a dial ships nothing; the first tasks on a
// fresh worker ship the blob exactly once however many race, counting no
// retry; a known circuit ships nothing again; a restarted worker is taught
// through the same path.
func TestUnknownSystemRegistersOnce(t *testing.T) {
	sys := testSystem(t, 0.5)
	probes := testProbes(sys)
	base := transient.Options{Tstop: 10e-9, Tol: 1e-7, Gamma: 1e-10, Probes: probes}
	local, _, err := Run(NewSystem(sys), transient.RMATEX, Config{Base: base, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	addr, cw, stop := startCountingWorker(t, "127.0.0.1:0")
	tune := defaultTuning
	tune.backoffBase = time.Millisecond
	pool, err := newRPCPool(context.Background(), []string{addr}, tune)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if n := cw.registers.Load(); n != 0 {
		t.Fatalf("dialing shipped %d blobs: a dial is a connect", n)
	}

	// Every group of the deck at once onto the one fresh worker: one of the
	// racing tasks ships the blob, the rest go again, none counts a retry.
	dsys := NewSystem(sys)
	groups := Partition(sys, base.Tstop)
	if len(groups) < 4 {
		t.Fatalf("only %d groups to race", len(groups))
	}
	req := subtaskRequest(transient.RMATEX, &base, sys.GTS(base.Tstop))
	var wg sync.WaitGroup
	results := make([]*TaskResult, len(groups))
	errs := make([]error, len(groups))
	for i, task := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = pool.Solve(context.Background(), dsys, task, req)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		if results[i].Retried != 0 {
			t.Errorf("task %d counted %d retries for a registration", i, results[i].Retried)
		}
	}
	if n := cw.registers.Load(); n != 1 {
		t.Fatalf("%d racing tasks shipped the blob %d times, want 1", len(groups), n)
	}

	// A known circuit ships nothing, through a fresh handle of the same
	// content too (the key is the content).
	for _, d := range []*System{dsys, NewSystem(sys)} {
		got, rep, err := Run(d, transient.RMATEX, Config{Base: base, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Retried != 0 || cw.registers.Load() != 1 {
			t.Fatalf("warm run: retried %d, %d blobs shipped in all", rep.Retried, cw.registers.Load())
		}
		if !reflect.DeepEqual(got.Probes, local.Probes) {
			t.Fatal("run over the taught worker differs from the in-process one-node run")
		}
	}

	// The worker restarts with nothing held: the task's transport failure is
	// a retry, the empty worker is then taught like a new one.
	stop()
	_, cw2, _ := startCountingWorker(t, addr)
	got, rep, err := Run(dsys, transient.RMATEX, Config{Base: base, Pool: pool})
	if err != nil {
		t.Fatalf("run after the worker restarted: %v", err)
	}
	if cw2.registers.Load() != 1 || rep.Retried != 1 {
		t.Fatalf("restarted worker: %d blobs shipped, %d retries; want 1 and 1 (the severed connection)", cw2.registers.Load(), rep.Retried)
	}
	if !reflect.DeepEqual(got.Probes, local.Probes) {
		t.Fatal("run over the restarted worker differs from the in-process one-node run")
	}
}

// TestWorkerCircuitBudget: a worker taught three times its byte budget in
// distinct systems holds no more than the budget, and a task on an evicted
// circuit re-registers it without counting a retry.
func TestWorkerCircuitBudget(t *testing.T) {
	systems := distinctSystems(t, 6)
	blob, _, err := NewSystem(systems[0]).wire()
	if err != nil {
		t.Fatal(err)
	}
	addr, cw, _ := startCountingWorker(t, "127.0.0.1:0")
	budget := 2*int64(len(blob)) + 64 // two of them, not three
	cw.ws.systems = memo.New[Key, *circuit.System](memo.NewBudget(budget))
	pool, err := NewRPCPool(context.Background(), []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	cfg := Config{Base: transient.Options{Tstop: 2e-9, Tol: 1e-7, Gamma: 1e-10, Probes: []int{0}}, Pool: pool}
	handles := make([]*System, len(systems))
	var first *transient.Result
	for i, sys := range systems {
		handles[i] = NewSystem(sys)
		res, rep, err := Run(handles[i], transient.RMATEX, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Retried != 0 {
			t.Fatalf("system %d: %d retries", i, rep.Retried)
		}
		if i == 0 {
			first = res
		}
		if st := cw.ws.systems.Stats(); st.Bytes > budget || st.Entries > 2 {
			t.Fatalf("after %d systems the worker holds %d circuits, %d bytes; budget %d", i+1, st.Entries, st.Bytes, budget)
		}
	}
	if n := cw.registers.Load(); n != int64(len(systems)) {
		t.Fatalf("%d blobs shipped for %d distinct systems", n, len(systems))
	}
	if _, ok := cw.ws.systems.Peek(handles[0].key); ok {
		t.Fatal("the first system was never evicted")
	}
	res, rep, err := Run(handles[0], transient.RMATEX, cfg)
	if err != nil {
		t.Fatalf("task on an evicted circuit: %v", err)
	}
	if rep.Retried != 0 || cw.registers.Load() != int64(len(systems))+1 {
		t.Fatalf("evicted circuit: %d retries, %d blobs shipped in all", rep.Retried, cw.registers.Load())
	}
	if !reflect.DeepEqual(res.Probes, first.Probes) {
		t.Fatal("the re-registered circuit answers differently")
	}
}

// TestRegisterRefusesMismatchedBlob: the worker checks the bytes it received
// against the key they came under, and stores nothing on a mismatch.
func TestRegisterRefusesMismatchedBlob(t *testing.T) {
	blob, key, err := NewSystem(testSystem(t, 0.1)).wire()
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkerServer(nil)
	wrong := key
	wrong[0] ^= 1
	err = ws.Register(&RegisterArgs{Key: wrong, Blob: blob}, &RegisterReply{})
	if err == nil || !strings.Contains(err.Error(), "hashes to") {
		t.Fatalf("blob under a key it does not hash to: %v", err)
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 1
	if err := ws.Register(&RegisterArgs{Key: key, Blob: flipped}, &RegisterReply{}); err == nil {
		t.Fatal("a corrupted blob was accepted under the intact one's key")
	}
	if st := ws.systems.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatal("a refused registration left something behind")
	}
	if err := ws.Register(&RegisterArgs{Key: key, Blob: blob}, &RegisterReply{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := ws.systems.Peek(key); !ok {
		t.Fatal("the matching blob was not stored")
	}
}

// TestWorkerHasNoOrderingOfItsOwn: a request that leaves the ordering at
// OrderDefault is solved on the fill the scheduler resolves it to (nd), bit
// for bit — a worker has no ordering default that could differ from the
// scheduler's DC solve.
func TestWorkerHasNoOrderingOfItsOwn(t *testing.T) {
	sys := testSystem(t, 0.5) // large enough that nd and the other orderings round differently
	blob, key, err := NewSystem(sys).wire()
	if err != nil {
		t.Fatal(err)
	}
	base := transient.Options{Tstop: 10e-9, Tol: 1e-7, Gamma: 1e-10, Probes: testProbes(sys)}
	tasks, _ := planTasks(Partition(sys, base.Tstop), nil, 1) // every group in one task
	task := tasks[0]
	solve := func(o sparse.Ordering) SolveReply {
		ws := NewWorkerServer(nil) // its own cache: each ordering factorizes afresh
		if err := ws.Register(&RegisterArgs{Key: key, Blob: blob}, &RegisterReply{}); err != nil {
			t.Fatal(err)
		}
		req := subtaskRequest(transient.RMATEX, &base, sys.GTS(base.Tstop))
		req.Ordering = o
		var reply SolveReply
		if err := ws.Solve(&SolveArgs{System: key, Task: task, Req: req}, &reply); err != nil {
			t.Fatal(err)
		}
		return reply
	}
	def, nd := solve(sparse.OrderDefault), solve(sparse.OrderND)
	if !reflect.DeepEqual(def.Result.Times, nd.Result.Times) || !reflect.DeepEqual(def.Result.Probes, nd.Result.Probes) ||
		!reflect.DeepEqual(def.Result.Final, nd.Result.Final) {
		t.Fatal("an OrderDefault request answered differently from the same request on nd")
	}
	if len(def.Result.Times) < 2 {
		t.Fatalf("the subtask recorded %d samples", len(def.Result.Times))
	}
}

// TestRegisterDoesNotBlockSolve: a large circuit being decoded holds up no
// subtask on another one, and a second first registration of one key waits
// for that decode instead of repeating it, keeping one entry.
func TestRegisterDoesNotBlockSolve(t *testing.T) {
	systems := distinctSystems(t, 2)
	a, b := NewSystem(systems[0]), NewSystem(systems[1])
	blobA, keyA, _ := a.wire()
	blobB, keyB, _ := b.wire()
	ws := NewWorkerServer(nil)
	if err := ws.Register(&RegisterArgs{Key: keyA, Blob: blobA}, &RegisterReply{}); err != nil {
		t.Fatal(err)
	}

	decoded := make(chan struct{}, 2)
	release := make(chan struct{})
	ws.afterDecode = func() {
		decoded <- struct{}{}
		<-release
	}
	registered := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { registered <- ws.Register(&RegisterArgs{Key: keyB, Blob: blobB}, &RegisterReply{}) }()
	}
	<-decoded
	for ws.systems.Stats().Hits == 0 {
		runtime.Gosched() // until the second registration of B waits on the first's decode
	}

	base := transient.Options{Tstop: 2e-9, Tol: 1e-7, Gamma: 1e-10, Probes: []int{0}}
	req := subtaskRequest(transient.RMATEX, &base, systems[0].GTS(base.Tstop))
	solved := make(chan error, 1)
	go func() {
		var reply SolveReply
		solved <- ws.Solve(&SolveArgs{System: keyA, Task: Partition(systems[0], base.Tstop)[0], Req: req}, &reply)
	}()
	select {
	case err := <-solved:
		if err != nil {
			t.Fatalf("Solve on A beside the registration of B: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Solve on A waited for the registration of B")
	}

	close(release)
	for i := 0; i < 2; i++ {
		if err := <-registered; err != nil {
			t.Fatal(err)
		}
	}
	if n := len(decoded); n != 0 {
		t.Fatalf("B was decoded %d more times", n)
	}
	if st, want := ws.systems.Stats(), int64(len(blobA)+len(blobB)); st.Entries != 2 || st.Bytes != want {
		t.Fatalf("worker holds %d circuits, %d bytes after A and two registrations of B", st.Entries, st.Bytes)
	}
}

// TestRegisterSingleFlight: eight registrations of one new blob at once
// decode it once; the other seven wait for that decode and all succeed.
func TestRegisterSingleFlight(t *testing.T) {
	blob, key, err := NewSystem(testSystem(t, 0.1)).wire()
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkerServer(nil)
	var decodes atomic.Int64
	release := make(chan struct{})
	ws.afterDecode = func() {
		decodes.Add(1)
		<-release
	}
	const n = 8
	registered := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { registered <- ws.Register(&RegisterArgs{Key: key, Blob: blob}, &RegisterReply{}) }()
	}
	for inflight := 0; inflight < n; {
		runtime.Gosched() // until every registration is inside Register
		ws.calls.mu.Lock()
		inflight = ws.calls.inflight
		ws.calls.mu.Unlock()
	}
	close(release)
	for i := 0; i < n; i++ {
		if err := <-registered; err != nil {
			t.Fatal(err)
		}
	}
	if got := decodes.Load(); got != 1 {
		t.Fatalf("%d concurrent registrations of one blob decoded it %d times, want 1", n, got)
	}
	if st := ws.systems.Stats(); st.Entries != 1 || st.Bytes != int64(len(blob)) {
		t.Fatalf("worker holds %d circuits, %d bytes; want the one blob", st.Entries, st.Bytes)
	}
}

// TestWireGenerationMismatchIsLoud: a generation-2 coordinator's call
// against this worker, and this coordinator's against a generation-2 worker,
// are answered errors that name the service — not transport failures, so
// nothing is retried and no worker is buried.
func TestWireGenerationMismatchIsLoud(t *testing.T) {
	addr, stop := startWorker(t)
	defer stop()
	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for _, method := range []string{"Register", "Solve"} {
		err = client.Call("MatexWorker2."+method, &SolveArgs{}, &SolveReply{})
		if err == nil || !strings.Contains(err.Error(), "MatexWorker2") || isTransportError(err) {
			t.Fatalf("MatexWorker2.%s against this worker: %v", method, err)
		}
	}

	oldAddr, _ := serveAt(t, "127.0.0.1:0", "MatexWorker2", &countingWorker{ws: NewWorkerServer(nil)})
	pool, err := NewRPCPool(context.Background(), []string{oldAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sys := testSystem(t, 0.1)
	began := time.Now()
	_, _, err = Run(NewSystem(sys), transient.RMATEX, Config{Base: transient.Options{Tstop: 2e-9, Probes: []int{0}}, Pool: pool})
	if err == nil || !strings.Contains(err.Error(), rpcService) || isTransportError(err) {
		t.Fatalf("run against a generation-2 worker: %v", err)
	}
	if pool.Nodes() != 1 {
		t.Fatal("the mismatched worker was buried as if its transport had failed")
	}
	if d := time.Since(began); d > 5*time.Second {
		t.Fatalf("the mismatch took %v to surface: a retry loop", d)
	}
}

// TestAllBuriedProbesBeforeFailing: with every worker buried, a task makes
// one probe round itself, so the run after a worker came back succeeds
// without waiting for the background prober (parked here for an hour).
func TestAllBuriedProbesBeforeFailing(t *testing.T) {
	leak := guardGoroutines(t)
	sys := testSystem(t, 0.2)
	probes := testProbes(sys)
	cfg := Config{Base: transient.Options{Tstop: 10e-9, Tol: 1e-7, Gamma: 1e-10, Probes: probes}, Workers: 1}
	local, _, err := Run(NewSystem(sys), transient.RMATEX, cfg)
	if err != nil {
		t.Fatal(err)
	}

	addr, _, stop := startCountingWorker(t, "127.0.0.1:0")
	pool, err := newRPCPool(context.Background(), []string{addr}, rpcTuning{
		backoffBase: time.Millisecond, redialAttempts: 1, probeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pool = pool
	dsys := NewSystem(sys)
	if _, _, err := Run(dsys, transient.RMATEX, cfg); err != nil {
		t.Fatal(err)
	}

	stop()
	if _, _, err := Run(dsys, transient.RMATEX, cfg); err == nil {
		t.Fatal("run with the only worker down succeeded")
	}
	if pool.Nodes() != 0 {
		t.Fatalf("%d live workers after the only one died", pool.Nodes())
	}

	_, cw, stop2 := startCountingWorker(t, addr)
	got, rep, err := Run(dsys, transient.RMATEX, cfg)
	if err != nil {
		t.Fatalf("run after the worker came back: %v", err)
	}
	if rep.Retried != 0 || cw.registers.Load() != 1 {
		t.Fatalf("run after the worker came back: %d retries, %d blobs shipped; want 0 and 1", rep.Retried, cw.registers.Load())
	}
	if d := maxDeviation(t, got, local, len(probes)); d != 0 {
		t.Errorf("waveform after the worker came back deviates %.3g V from in-process", d)
	}
	pool.Close()
	stop2()
	leak()
}
