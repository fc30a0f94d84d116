package dist

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/faultinject"
	"github.com/matex-sim/matex/internal/krylov"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/transient"
	"github.com/matex-sim/matex/internal/waveform"
)

// rpcService is the name the worker service registers under. The "2"
// marks the wire generation: sparse.Ordering values were renumbered when
// OrderDefault became the zero value, so a scheduler from this generation
// talking to an older matexd (or vice versa) would silently factorize
// under a different ordering. A distinct service name makes the mismatch a
// loud "can't find service" dial-time error instead.
const rpcService = "MatexWorker2"

func init() {
	// Concrete waveform types crossing the wire inside circuit.Input.Wave.
	gob.Register(waveform.DC(0))
	gob.Register(&waveform.Pulse{})
	gob.Register(&waveform.PWL{})
	gob.Register(waveform.Scaled{})
	gob.Register(waveform.Shifted{})
	gob.Register(waveform.ZeroBased{})
}

// wireSystem is the serialized form of the subtask system: exactly what a
// worker needs to run transient.Simulate — matrices and inputs, no node
// names. The inputs arrive already zero-based (see zeroStateSystem).
type wireSystem struct {
	N, NumNodes int
	C, G        *sparse.CSC
	Inputs      []circuit.Input
}

// encodeSystem gob-encodes the zero-based view of sys. The byte content
// also serves as the system's identity (see fingerprint).
func encodeSystem(sys *circuit.System) ([]byte, error) {
	sub := zeroStateSystem(sys)
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(wireSystem{
		N: sub.N, NumNodes: sub.NumNodes, C: sub.C, G: sub.G, Inputs: sub.Inputs,
	})
	if err != nil {
		return nil, fmt.Errorf("dist: encoding system: %w", err)
	}
	return buf.Bytes(), nil
}

// fingerprint hashes an encoded system (FNV-1a) into a registration ID, so
// re-registering the same circuit is idempotent across reconnects.
func fingerprint(blob []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, b := range blob {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// RegisterArgs ships a circuit to a worker ahead of its subtasks.
type RegisterArgs struct {
	// ID is the fingerprint of Blob; subtasks refer to the system by it.
	ID uint64
	// Blob is the gob-encoded system (empty when probing with Known).
	Blob []byte
}

// RegisterReply acknowledges a registration.
type RegisterReply struct {
	// Known reports whether the worker now holds the system.
	Known bool
}

// SolveArgs is one subtask dispatch.
type SolveArgs struct {
	SystemID uint64
	Task     Task
	Req      Request
}

// SolveReply carries the subtask's zero-state response.
type SolveReply struct {
	Result *transient.Result
}

// workerSystem is a registered circuit. Its factorizations live in the
// server-wide cache, keyed by matrix content, so a worker factorizes G and
// (C + γG) once and reuses them across every subtask and every repeated
// scheduler run against the same circuit, like the paper's cluster nodes.
type workerSystem struct {
	sys *circuit.System
}

// WorkerServer is the net/rpc service run by a matexd worker: it holds the
// circuits it has been sent and solves the subtasks dispatched against
// them. Zero value is not usable; call NewWorkerServer.
type WorkerServer struct {
	mu      sync.Mutex
	systems map[uint64]*workerSystem
	cache   *sparse.Cache
	// workspaces is the worker's Krylov arena pool, shared across every
	// subtask and every scheduler run against this process — the
	// subspace-generation analogue of the factorization cache above.
	workspaces *krylov.WorkspacePool
	// ordering is the worker-local default ordering applied when a request
	// arrives with OrderDefault (matexd -order).
	ordering sparse.Ordering
	// calls tracks in-flight RPC handlers so a draining worker (SIGTERM on
	// matexd, ServeContext cancellation) finishes what it started before
	// its connections are severed.
	calls drainGroup
	// faults is the injection registry (nil in production). A WorkerCrash
	// firing simulates kill -9: the crashing Solve call signals crashCh,
	// ServeContext severs every connection without draining, and the blocked
	// handler returns only after severed closes — so from the scheduler's
	// side the reply simply never arrives.
	faults    *faultinject.Registry
	crashOnce sync.Once
	crashCh   chan struct{}
	severOnce sync.Once
	severed   chan struct{}
}

// drainGroup counts in-flight calls and supports a one-way transition to a
// draining state in which new calls are rejected and a waiter can block
// until the in-flight ones finish. sync.WaitGroup alone cannot express this
// (Add after Wait races); the mutex+cond pair makes enter-vs-drain atomic.
type drainGroup struct {
	mu       sync.Mutex
	cond     *sync.Cond
	inflight int
	draining bool
}

// enter registers a call; it reports false once draining has begun, and the
// caller must then reject the call without doing work.
func (g *drainGroup) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.inflight++
	return true
}

// exit unregisters a call previously admitted by enter.
func (g *drainGroup) exit() {
	g.mu.Lock()
	g.inflight--
	if g.inflight == 0 {
		if g.cond != nil {
			g.cond.Broadcast()
		}
	}
	g.mu.Unlock()
}

// drain flips to the draining state and waits until the in-flight calls
// finish or the grace period expires; it reports whether the group
// emptied. The deadline is enforced by periodic broadcasts rather than a
// single timer shot, so a wakeup can never be permanently lost (a one-shot
// fired before the waiter parks would otherwise leave drain blocked on a
// stuck call forever).
func (g *drainGroup) drain(grace time.Duration) bool {
	g.mu.Lock()
	g.draining = true
	if g.cond == nil {
		g.cond = sync.NewCond(&g.mu)
	}
	g.mu.Unlock()

	deadline := time.Now().Add(grace)
	interval := grace / 10
	interval = min(max(interval, time.Millisecond), 100*time.Millisecond)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				g.mu.Lock()
				g.cond.Broadcast()
				g.mu.Unlock()
			case <-stop:
				return
			}
		}
	}()

	g.mu.Lock()
	defer g.mu.Unlock()
	for g.inflight > 0 && time.Now().Before(deadline) {
		g.cond.Wait()
	}
	return g.inflight == 0
}

// errDraining is what a worker answers once it has begun shutting down;
// the scheduler's retry loop recognizes it (isDrainingError) and routes
// the subtask to another worker instead of failing the run.
var errDraining = errors.New("dist: worker is draining (shutting down)")

// SetOrdering sets the worker-local default fill-reducing ordering applied
// when a request arrives with OrderDefault (matexd -order). Call before
// ServeContext.
func (w *WorkerServer) SetOrdering(o sparse.Ordering) { w.ordering = o }

// NewWorkerServer returns an empty worker service for ServeContext, with
// a default-budget factorization cache.
func NewWorkerServer() *WorkerServer {
	return NewWorkerServerWithCache(sparse.NewCache(0))
}

// NewWorkerServerWithCache returns an empty worker service using the given
// factorization cache (nil allocates a default one). cmd/matexd uses this
// to honor its -cache-mb budget flag.
func NewWorkerServerWithCache(cache *sparse.Cache) *WorkerServer {
	if cache == nil {
		cache = sparse.NewCache(0)
	}
	return &WorkerServer{
		systems:    make(map[uint64]*workerSystem),
		cache:      cache,
		workspaces: krylov.NewWorkspacePool(),
		crashCh:    make(chan struct{}),
		severed:    make(chan struct{}),
	}
}

// SetFaults installs the fault-injection registry consulted at the worker's
// crash point (faultinject.WorkerCrash). Call before ServeContext; nil (the
// default) injects nothing.
func (w *WorkerServer) SetFaults(r *faultinject.Registry) { w.faults = r }

// crashed reports whether an injected WorkerCrash has fired.
func (w *WorkerServer) crashed() bool {
	select {
	case <-w.crashCh:
		return true
	default:
		return false
	}
}

// CacheStats reports the worker's factorization cache counters.
func (w *WorkerServer) CacheStats() sparse.CacheStats { return w.cache.Stats() }

// Register stores a circuit on the worker. With an empty Blob it only
// probes: Known reports whether the ID is already held (so a reconnecting
// scheduler can skip re-sending a large circuit).
func (w *WorkerServer) Register(args *RegisterArgs, reply *RegisterReply) error {
	if !w.calls.enter() {
		return errDraining
	}
	defer w.calls.exit()
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.systems[args.ID]; ok {
		reply.Known = true
		return nil
	}
	if len(args.Blob) == 0 {
		reply.Known = false
		return nil
	}
	if got := fingerprint(args.Blob); got != args.ID {
		return fmt.Errorf("dist: system blob fingerprint %x does not match ID %x", got, args.ID)
	}
	var ws wireSystem
	if err := gob.NewDecoder(bytes.NewReader(args.Blob)).Decode(&ws); err != nil {
		return fmt.Errorf("dist: decoding system: %w", err)
	}
	w.systems[args.ID] = &workerSystem{
		sys: &circuit.System{
			N: ws.N, NumNodes: ws.NumNodes, C: ws.C, G: ws.G, Inputs: ws.Inputs,
		},
	}
	reply.Known = true
	return nil
}

// Solve runs one zero-state subtask against a registered circuit.
//
//matex:ctx-exempt(net/rpc handler signature is fixed; the only blocking receive is the injected-crash hold, released by ServeContext's sever)
func (w *WorkerServer) Solve(args *SolveArgs, reply *SolveReply) error {
	if !w.calls.enter() {
		return errDraining
	}
	defer w.calls.exit()
	w.mu.Lock()
	ws, ok := w.systems[args.SystemID]
	w.mu.Unlock()
	if !ok {
		return fmt.Errorf("dist: unknown system %x (register it first)", args.SystemID)
	}
	req := args.Req
	if req.Ordering == sparse.OrderDefault {
		req.Ordering = w.ordering
	}
	opts := subtaskOptions(nil, ws.sys, args.Task, req, w.cache, w.workspaces)
	res, err := transient.Simulate(ws.sys, req.Method, opts)
	if err != nil {
		return fmt.Errorf("dist: group %d: %w", args.Task.GroupID, err)
	}
	if w.faults.Hit(faultinject.WorkerCrash) {
		// Injected kill -9: signal the serving loop to sever every connection
		// without draining, then hold the handler until it has — the reply is
		// computed but never leaves the process, exactly what the scheduler
		// observes when a worker dies after finishing N tasks.
		w.crashOnce.Do(func() { close(w.crashCh) })
		<-w.severed
		return fmt.Errorf("dist: %w", faultinject.ErrInjected)
	}
	reply.Result = res
	return nil
}

// DefaultDrainGrace bounds how long a canceled ServeContext waits for
// in-flight RPCs before severing their connections anyway.
const DefaultDrainGrace = 30 * time.Second

// ServeContext accepts connections on l and serves the worker service until
// the listener fails or ctx fires. Each connection is served concurrently;
// net/rpc additionally runs each call in its own goroutine. When ctx fires
// the worker drains: the listener is closed (no new connections), new RPCs
// on existing connections are answered with a draining error, in-flight
// RPCs get up to grace to finish, and only then are the connections
// severed. An omitted grace selects DefaultDrainGrace; an explicit zero (or
// negative) grace severs immediately ("matexd -grace 0"). It returns nil
// after a drain triggered by ctx, and the listener's error when accepting
// fails on its own. cmd/matexd and the test harnesses both shut down
// through this path.
func ServeContext(ctx context.Context, l net.Listener, ws *WorkerServer, grace ...time.Duration) error {
	srv := rpc.NewServer()
	if err := srv.RegisterName(rpcService, ws); err != nil {
		return err
	}
	g := DefaultDrainGrace
	if len(grace) > 0 {
		g = max(grace[0], 0)
	}

	// Unblock Accept when the context fires or an injected crash lands.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			l.Close()
		case <-ws.crashCh:
			l.Close()
		case <-stop:
		}
	}()

	var (
		mu    sync.Mutex
		conns = make(map[net.Conn]struct{})
		wg    sync.WaitGroup
	)
	for {
		conn, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil || ws.crashed() {
				break // graceful drain, or crash-sever, below
			}
			return err
		}
		mu.Lock()
		conns[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			srv.ServeConn(conn)
			mu.Lock()
			delete(conns, conn)
			mu.Unlock()
		}(conn)
	}

	if ws.crashed() {
		// Injected kill -9: no drain, no goodbye — sever every connection
		// with replies still in flight, release the crashing handler, and
		// report the injected death to the harness that ran this worker.
		mu.Lock()
		for conn := range conns {
			conn.Close()
		}
		mu.Unlock()
		ws.severOnce.Do(func() { close(ws.severed) })
		wg.Wait()
		return fmt.Errorf("dist: worker crashed: %w", faultinject.ErrInjected)
	}

	// Finish in-flight RPCs (replies travel back over the still-open
	// connections), then sever the connections so ServeConn returns.
	ws.calls.drain(g)
	mu.Lock()
	for conn := range conns {
		conn.Close()
	}
	mu.Unlock()
	wg.Wait()
	return nil
}
