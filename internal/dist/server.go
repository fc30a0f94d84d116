package dist

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
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

// rpcService is the name the worker service registers under; the digit is
// the wire generation (3: circuits named by Key, taught on "unknown system").
// A scheduler and a matexd of different generations would misread each other
// silently — generation 2 numbered sparse.Ordering differently, generation 3
// keys circuits differently — so the service name differs and the mismatch is
// a loud "can't find service MatexWorkerN" on the first call.
const rpcService = "MatexWorker3"

func init() {
	// Concrete waveform types crossing the wire inside circuit.Input.Wave.
	gob.Register(waveform.DC(0))
	gob.Register(&waveform.Pulse{})
	gob.Register(&waveform.PWL{})
	gob.Register(waveform.Scaled{})
	gob.Register(waveform.Shifted{})
	gob.Register(waveform.ZeroBased{})
}

// RegisterArgs teaches a worker a circuit. The pool sends it to a worker
// that answered a Solve with errUnknownSystem — a new worker, a restarted
// one and one that evicted the circuit are the same case.
type RegisterArgs struct {
	// Key is the SHA-256 of Blob; subtasks refer to the system by it.
	Key Key
	// Blob is the gob-encoded system (System.wire).
	Blob []byte
}

// RegisterReply acknowledges a registration.
type RegisterReply struct{}

// SolveArgs is one subtask dispatch.
type SolveArgs struct {
	System Key
	Task   Task
	Req    Request
}

// SolveReply carries the subtask's zero-state response.
type SolveReply struct {
	Result *transient.Result
}

// errUnknownSystem is what Solve answers for a Key the worker does not hold;
// the pool recognizes it (isUnknownSystem), registers the circuit on that
// worker and sends the task again.
var errUnknownSystem = errors.New("dist: unknown system")

// maxSystemBytes bounds the circuits a worker holds, counted in bytes of
// registered blob. An evicted circuit costs its next task one registration.
const maxSystemBytes = 1 << 30

// workerSystem is a registered circuit. Its factorizations live in the
// server-wide cache, keyed by matrix content, so a worker factorizes G and
// (C + γG) once and reuses them across every subtask and every repeated
// scheduler run against the same circuit, like the paper's cluster nodes.
type workerSystem struct {
	key  Key
	size int64 // len of the blob it was decoded from
	sys  *circuit.System
}

// WorkerServer is the net/rpc service run by a matexd worker: it holds the
// circuits it has been sent and solves the subtasks dispatched against
// them. Zero value is not usable; call NewWorkerServer.
type WorkerServer struct {
	// mu guards the held circuits: a byte-bounded LRU, most recently used
	// first. A circuit evicted under a running subtask stays alive for it.
	mu           sync.Mutex
	systems      map[Key]*list.Element // of *workerSystem
	lru          *list.List
	systemBytes  int64
	systemBudget int64 // maxSystemBytes; the tests shrink it
	// afterDecode, when set by a test, runs in Register between decoding a
	// blob and taking mu to insert it.
	afterDecode func()

	cache *sparse.Cache
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

// NewWorkerServer returns an empty worker service for ServeContext using
// the given factorization cache (nil: one with the default budget; cmd/matexd
// passes its -cache-mb budget).
func NewWorkerServer(cache *sparse.Cache) *WorkerServer {
	if cache == nil {
		cache = sparse.NewCache(0)
	}
	return &WorkerServer{
		systems:      make(map[Key]*list.Element),
		lru:          list.New(),
		systemBudget: maxSystemBytes,
		cache:        cache,
		workspaces:   krylov.NewWorkspacePool(),
		crashCh:      make(chan struct{}),
		severed:      make(chan struct{}),
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

// held returns the circuit registered under key, marking it most recently
// used; nil if the worker does not hold it.
func (w *WorkerServer) held(key Key) *workerSystem {
	w.mu.Lock()
	defer w.mu.Unlock()
	e, ok := w.systems[key]
	if !ok {
		return nil
	}
	w.lru.MoveToFront(e)
	return e.Value.(*workerSystem)
}

// Register stores a circuit on the worker, refusing a blob that does not
// hash to its key. The blob is verified and decoded outside the lock, so
// subtasks on other circuits are not held up by a large one arriving;
// registering a key the worker already holds changes nothing. Least recently
// used circuits are dropped once the held blobs pass the byte budget (the
// newest always stays).
func (w *WorkerServer) Register(args *RegisterArgs, _ *RegisterReply) error {
	if !w.calls.enter() {
		return errDraining
	}
	defer w.calls.exit()
	if w.held(args.Key) != nil {
		return nil
	}
	if got := Key(sha256.Sum256(args.Blob)); got != args.Key {
		return fmt.Errorf("dist: system blob hashes to %x, not to its key %x", got[:8], args.Key[:8])
	}
	var ws wireSystem
	if err := gob.NewDecoder(bytes.NewReader(args.Blob)).Decode(&ws); err != nil {
		return fmt.Errorf("dist: decoding system: %w", err)
	}
	if w.afterDecode != nil {
		w.afterDecode()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.systems[args.Key]; ok {
		return nil // a concurrent first registration won
	}
	w.systems[args.Key] = w.lru.PushFront(&workerSystem{
		key: args.Key, size: int64(len(args.Blob)),
		sys: &circuit.System{N: ws.N, NumNodes: ws.NumNodes, C: ws.C, G: ws.G, Inputs: ws.Inputs},
	})
	w.systemBytes += int64(len(args.Blob))
	for w.systemBytes > w.systemBudget && w.lru.Len() > 1 {
		old := w.lru.Remove(w.lru.Back()).(*workerSystem)
		w.systemBytes -= old.size
		delete(w.systems, old.key)
	}
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
	ws := w.held(args.System)
	if ws == nil {
		return fmt.Errorf("%w %x", errUnknownSystem, args.System[:8])
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
