package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"time"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/faultinject"
)

// PoolOptions configures the RPC pool's transport resilience. The zero
// value reproduces sane defaults: 10s dials, three redial attempts spread
// over ~50ms..2s exponential backoff with jitter, no per-attempt solve
// deadline, no background health probing.
type PoolOptions struct {
	// DialTimeout bounds every dial — construction, mid-run revival, health
	// probes. Zero defaults to 10s.
	DialTimeout time.Duration
	// AttemptTimeout, when positive, bounds a single Solve dispatch on one
	// worker: past it the worker's connection is severed and the subtask is
	// re-dispatched elsewhere, so one stuck worker cannot stall a whole
	// superposition. Zero disables the bound (subtask runtimes vary by
	// orders of magnitude with system size; callers opt in with a budget
	// they derive from their own deadline).
	AttemptTimeout time.Duration
	// BackoffBase/BackoffMax shape the capped exponential redial backoff:
	// attempt i sleeps min(BackoffBase·2^i, BackoffMax), scaled by ±25%
	// jitter. Defaults 50ms / 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// RedialAttempts is how many backed-off redials a failed worker gets
	// before it is buried (the health prober may still re-admit it later).
	// Zero defaults to 3.
	RedialAttempts int
	// HealthInterval, when positive, runs a background prober that redials
	// buried workers every interval and re-admits them on success — a
	// restarted matexd rejoins the rotation without waiting for a task to
	// fail onto it. Zero disables probing.
	HealthInterval time.Duration
	// Seed seeds the jitter PRNG; the zero value uses a fixed seed, keeping
	// retry timing reproducible by default.
	Seed int64
	// Fault is the fault-injection registry consulted at the pool's dial and
	// dispatch points (faultinject.DialFail, faultinject.RPCSever). Nil — the
	// production value — injects nothing.
	Fault *faultinject.Registry
}

func (o PoolOptions) withDefaults() PoolOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.RedialAttempts <= 0 {
		o.RedialAttempts = 3
	}
	return o
}

// rpcWorker is one matexd connection with its liveness state.
type rpcWorker struct {
	addr   string
	client *rpc.Client
	dead   bool
	// revMu serializes revival of this worker: concurrent Solve goroutines
	// that saw the same connection fail queue up on it, and every waiter
	// after the first finds the client already swapped (or the worker
	// buried) and walks away without dialing.
	revMu sync.Mutex
}

// rpcPool dispatches subtasks to matexd workers over TCP. Subtasks are
// spread round-robin — Run plans one task per live worker, so each worker
// gets one. A worker whose transport fails mid-task is redialed with capped
// exponential backoff and otherwise buried, and the task is re-dispatched
// whole to the next live worker (counted in TaskResult.Retried, surfaced
// via Report.Retried). An optional background prober re-admits buried
// workers once they answer dials again.
type rpcPool struct {
	id   uint64
	blob []byte
	opts PoolOptions

	// baseCtx scopes the pool's background work (health probing, revival
	// dial cancellation) to the context the pool was created under.
	baseCtx context.Context

	mu      sync.Mutex
	workers []*rpcWorker
	next    int
	rng     *rand.Rand

	stopOnce sync.Once
	stop     chan struct{}
	healthWG sync.WaitGroup
}

// NewRPCPool connects to matexd workers and registers the system's
// zero-based subtask circuit with each of them, with default PoolOptions.
// Every address must be reachable at construction time; failures during
// Solve are retried on the remaining workers instead.
//
//matex:ctx-root(legacy constructor for callers without a context; NewRPCPoolContext is the primary entry)
func NewRPCPool(sys *circuit.System, addrs []string) (Pool, error) {
	return NewRPCPoolContext(context.Background(), sys, addrs, PoolOptions{})
}

// NewRPCPoolContext is NewRPCPool under a context and explicit transport
// options: ctx bounds the construction dials and scopes the pool's
// background health prober, which stops when ctx fires or the pool closes.
func NewRPCPoolContext(ctx context.Context, sys *circuit.System, addrs []string, opts PoolOptions) (Pool, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("dist: NewRPCPool needs at least one worker address")
	}
	if ctx == nil {
		return nil, fmt.Errorf("dist: NewRPCPoolContext needs a context (use context.Background() explicitly)")
	}
	blob, err := encodeSystem(sys)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	p := &rpcPool{
		id:      fingerprint(blob),
		blob:    blob,
		opts:    opts,
		baseCtx: ctx,
		rng:     rand.New(rand.NewSource(opts.Seed ^ 0x6d617465)), // fixed default seed
		stop:    make(chan struct{}),
	}
	for _, addr := range addrs {
		client, err := p.dial(ctx, addr)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("dist: worker %s: %w", addr, err)
		}
		p.workers = append(p.workers, &rpcWorker{addr: addr, client: client})
	}
	if opts.HealthInterval > 0 {
		p.healthWG.Add(1)
		go p.healthLoop()
	}
	return p, nil
}

// dial connects to one worker under the pool's dial timeout and ensures it
// holds the system: it probes by ID first and ships the blob only if the
// worker lacks it. The context cancels the TCP dial immediately (a canceled
// job no longer blocks in a dial for the full timeout).
func (p *rpcPool) dial(ctx context.Context, addr string) (*rpc.Client, error) {
	if err := p.opts.Fault.Check(faultinject.DialFail); err != nil {
		return nil, err
	}
	dctx, cancel := context.WithTimeout(ctx, p.opts.DialTimeout)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(dctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	client := rpc.NewClient(conn)
	var reply RegisterReply
	if err := client.Call(rpcService+".Register", &RegisterArgs{ID: p.id}, &reply); err != nil {
		client.Close()
		return nil, fmt.Errorf("probing system registration: %w", err)
	}
	if !reply.Known {
		if err := client.Call(rpcService+".Register", &RegisterArgs{ID: p.id, Blob: p.blob}, &reply); err != nil {
			client.Close()
			return nil, fmt.Errorf("registering system: %w", err)
		}
	}
	return client, nil
}

// errAttemptTimeout marks a dispatch that outlived PoolOptions.AttemptTimeout;
// classified as a transport failure so the subtask moves to another worker.
var errAttemptTimeout = errors.New("dist: solve attempt deadline exceeded")

// Solve implements Pool.
func (p *rpcPool) Solve(ctx context.Context, task Task, req Request) (*TaskResult, error) {
	args := &SolveArgs{SystemID: p.id, Task: task, Req: req}
	retried := 0
	var lastErr error
	// Every worker gets at most two chances for this task: its original
	// dispatch and one more after a successful mid-task revival (a restarted
	// matexd), so a flapping worker cannot trap the task in a retry loop.
	for attempt := 0; attempt < 2*p.size(); attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("dist: group %d canceled: %w", task.GroupID, err)
		}
		w, client := p.pick()
		if w == nil {
			break
		}
		start := time.Now()
		var reply SolveReply
		call := client.Go(rpcService+".Solve", args, &reply, make(chan *rpc.Call, 1))
		if p.opts.Fault.Hit(faultinject.RPCSever) {
			// Injected mid-RPC connection drop: the request is on the wire
			// (the worker may well complete it) but the reply path is gone —
			// exactly what a TCP reset mid-call looks like from here.
			client.Close()
		}
		var deadline <-chan time.Time
		if p.opts.AttemptTimeout > 0 {
			timer := time.NewTimer(p.opts.AttemptTimeout)
			defer timer.Stop()
			deadline = timer.C
		}
		var err error
		select {
		case <-ctx.Done():
			// The reply (if any) is abandoned; the worker finishes the
			// subtask on its own and keeps its cache warm for the next run.
			return nil, fmt.Errorf("dist: group %d canceled: %w", task.GroupID, ctx.Err())
		case <-deadline:
			// Stuck worker: sever its connection so the in-flight call
			// unblocks with ErrShutdown, then treat it like any transport
			// failure — revival dials it fresh, the task moves on.
			client.Close()
			<-call.Done
			err = errAttemptTimeout
		case done := <-call.Done:
			err = done.Error
		}
		if err == nil {
			return &TaskResult{Result: reply.Result, Elapsed: time.Since(start), Retried: retried, Worker: w.addr}, nil
		}
		if isDrainingError(err) {
			// The worker is shutting down but its connection is healthy
			// and may still carry replies for our other in-flight
			// subtasks: retire it from the rotation WITHOUT closing the
			// shared client, and retry this task elsewhere.
			lastErr = err
			p.retire(w)
			retried++
			continue
		}
		if !isTransportError(err) && !errors.Is(err, errAttemptTimeout) {
			// The worker answered: a genuine solver failure, identical on
			// every node — re-dispatching cannot help.
			return nil, err
		}
		lastErr = err
		p.reviveOrBury(ctx, w, client)
		retried++
	}
	if lastErr == nil {
		lastErr = errors.New("no live workers")
	}
	return nil, fmt.Errorf("dist: group %d failed on all workers: %w", task.GroupID, lastErr)
}

// retire takes a draining worker out of the round-robin rotation without
// touching its connection: in-flight replies to other goroutines still
// travel over it, and the draining matexd severs it itself once idle. The
// client is eventually released by pool Close.
func (p *rpcPool) retire(w *rpcWorker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w.dead = true
}

// Nodes implements Pool: the workers currently in the rotation. A worker
// that died since its last dispatch still counts until a task fails on it;
// that task then moves whole to a survivor.
func (p *rpcPool) Nodes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	live := 0
	for _, w := range p.workers {
		if !w.dead {
			live++
		}
	}
	return live
}

// size returns the worker count (live or dead) — the retry attempt basis.
func (p *rpcPool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.workers)
}

// pick returns the next live worker round-robin with a snapshot of its
// client (connections are swapped under the lock on revival), or nil when
// none is left.
func (p *rpcPool) pick() (*rpcWorker, *rpc.Client) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; i < len(p.workers); i++ {
		w := p.workers[p.next%len(p.workers)]
		p.next++
		if !w.dead {
			return w, w.client
		}
	}
	return nil, nil
}

// backoff returns the jittered capped-exponential sleep for redial attempt i.
func (p *rpcPool) backoff(i int) time.Duration {
	d := p.opts.BackoffBase << uint(i)
	if d > p.opts.BackoffMax || d <= 0 {
		d = p.opts.BackoffMax
	}
	p.mu.Lock()
	jitter := 0.75 + 0.5*p.rng.Float64() // ±25%
	p.mu.Unlock()
	return time.Duration(float64(d) * jitter)
}

// reviveOrBury handles a worker whose transport failed: up to
// PoolOptions.RedialAttempts redials under capped exponential backoff with
// jitter (a restarted matexd re-registers and lives on), else bury it —
// the health prober, when enabled, keeps probing buried workers. failed is
// the connection the caller observed failing; if another goroutine already
// revived or buried the worker, it is left alone. The sleeps hold no pool
// lock, so other workers dispatch undisturbed, and they abort as soon as
// ctx or the pool's base context fires.
func (p *rpcPool) reviveOrBury(ctx context.Context, w *rpcWorker, failed *rpc.Client) {
	w.revMu.Lock()
	defer w.revMu.Unlock()
	p.mu.Lock()
	stale := w.dead || w.client != failed
	p.mu.Unlock()
	if stale {
		return
	}
	failed.Close()
	for i := 0; i < p.opts.RedialAttempts; i++ {
		if i > 0 {
			select {
			case <-ctx.Done():
				p.bury(w, failed)
				return
			case <-p.baseCtx.Done():
				p.bury(w, failed)
				return
			case <-p.stop:
				p.bury(w, failed)
				return
			case <-time.After(p.backoff(i - 1)):
			}
		}
		client, err := p.dial(ctx, w.addr)
		if err == nil {
			p.mu.Lock()
			w.client = client
			w.dead = false
			p.mu.Unlock()
			return
		}
	}
	p.bury(w, failed)
}

// bury marks a worker dead if its failed connection is still current.
func (p *rpcPool) bury(w *rpcWorker, failed *rpc.Client) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if w.client == failed {
		w.dead = true
	}
}

// healthLoop is the background prober: every HealthInterval it redials the
// buried workers once each and re-admits the ones that answer. It exits when
// the pool closes or its base context fires.
func (p *rpcPool) healthLoop() {
	defer p.healthWG.Done()
	tick := time.NewTicker(p.opts.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-p.baseCtx.Done():
			return
		case <-tick.C:
			p.probeBuried()
		}
	}
}

// probeBuried attempts one dial per buried worker and revives on success.
func (p *rpcPool) probeBuried() {
	p.mu.Lock()
	var buried []*rpcWorker
	for _, w := range p.workers {
		if w.dead {
			buried = append(buried, w)
		}
	}
	p.mu.Unlock()
	for _, w := range buried {
		w.revMu.Lock()
		p.mu.Lock()
		dead := w.dead
		p.mu.Unlock()
		if !dead { // a Solve goroutine revived it meanwhile
			w.revMu.Unlock()
			continue
		}
		client, err := p.dial(p.baseCtx, w.addr)
		if err == nil {
			p.mu.Lock()
			if old := w.client; old != nil && old != client {
				old.Close()
			}
			w.client = client
			w.dead = false
			p.mu.Unlock()
		}
		w.revMu.Unlock()
	}
}

// Close implements Pool: it stops the health prober and closes every
// client, including retired and buried workers' (revival already closed the
// latter's connection — the second Close reports ErrShutdown, which is not
// an error here).
//
//matex:ctx-exempt(joins the pool's own background prober, bounded by the ticker interval)
func (p *rpcPool) Close() error {
	p.stopOnce.Do(func() { close(p.stop) })
	p.healthWG.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	var first error
	for _, w := range p.workers {
		if w.client == nil {
			continue
		}
		if err := w.client.Close(); err != nil && !errors.Is(err, rpc.ErrShutdown) && first == nil {
			first = err
		}
	}
	return first
}

// isDrainingError matches the answer of a gracefully-stopping worker (see
// WorkerServer drain support): the subtask is retried on another worker,
// and the redial attempt against the draining worker's closed listener
// buries it for the rest of the run.
func isDrainingError(err error) bool {
	return err != nil && strings.Contains(err.Error(), "worker is draining")
}

// isTransportError distinguishes a broken connection (retryable on another
// worker) from an error the remote solver returned (not retryable —
// rpc.ServerError values travel back over a healthy connection).
func isTransportError(err error) bool {
	var serverErr rpc.ServerError
	if errors.As(err, &serverErr) {
		return false
	}
	if errors.Is(err, rpc.ErrShutdown) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var netErr net.Error
	if errors.As(err, &netErr) {
		return true
	}
	var opErr *net.OpError
	return errors.As(err, &opErr)
}
