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

	"github.com/matex-sim/matex/internal/faultinject"
)

// The transport's fixed behaviour: every dial is bounded by dialTimeout, and
// a worker whose connection failed is redialed under capped exponential
// backoff with ±25% jitter from a fixed seed, so retry timing is
// reproducible. Nothing bounds a solve attempt: subtask runtimes vary by
// orders of magnitude with system size, and a stuck (not dead) worker is
// only ever left by canceling the run.
const (
	dialTimeout = 10 * time.Second
	backoffMax  = 2 * time.Second
	jitterSeed  = 0x6d617465
)

// rpcTuning is the part of the transport the in-package fault tests turn;
// every binary runs defaultTuning.
type rpcTuning struct {
	// backoffBase is the first redial sleep; attempt i sleeps
	// min(backoffBase·2^i, backoffMax), jittered.
	backoffBase time.Duration
	// redialAttempts is how many backed-off redials a failed worker gets
	// before it is buried (the prober re-admits it later).
	redialAttempts int
	// probeInterval is how often the background prober redials buried workers.
	probeInterval time.Duration
	// fault is the fault-injection registry consulted at the pool's dial and
	// dispatch points (faultinject.DialFail, faultinject.RPCSever).
	fault *faultinject.Registry
}

var defaultTuning = rpcTuning{backoffBase: 50 * time.Millisecond, redialAttempts: 3, probeInterval: 2 * time.Second}

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
	// teachMu serializes registrations on this worker; taught/taughtAt
	// remember the last one, so that of several tasks of one system racing
	// onto a worker that lacks it, one ships the blob and the rest, sent
	// before it landed, just go again.
	teachMu  sync.Mutex
	taught   Key
	taughtAt time.Time
}

// rpcPool dispatches subtasks to matexd workers over TCP. It is its
// connections and nothing else: a worker learns a circuit when it answers a
// task with "unknown system" (teach). Subtasks are spread round-robin — Run
// plans one task per live worker, so each worker gets one. A worker whose
// transport fails mid-task is redialed with capped exponential backoff and
// otherwise buried, and the task is re-dispatched whole to the next live
// worker (counted in TaskResult.Retried, surfaced via Report.Retried). A
// background prober re-admits buried workers once they answer dials again.
type rpcPool struct {
	tune rpcTuning

	// ctx scopes the pool's background work (health probing, revival
	// backoff): it ends when the context the pool was created under fires or
	// the pool closes.
	ctx      context.Context
	cancel   context.CancelFunc
	healthWG sync.WaitGroup

	workers []*rpcWorker // fixed at construction
	mu      sync.Mutex   // guards every worker's client and dead, next, rng
	next    int
	rng     *rand.Rand
}

// NewRPCPool connects to matexd workers. Every address must be reachable at
// construction time; failures during Solve are retried on the remaining
// workers instead. ctx bounds the construction dials and scopes the pool's
// background prober, which stops when ctx fires or the pool closes — Close
// the pool when done with it.
func NewRPCPool(ctx context.Context, addrs []string) (Pool, error) {
	return newRPCPool(ctx, addrs, defaultTuning)
}

func newRPCPool(ctx context.Context, addrs []string, tune rpcTuning) (Pool, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("dist: NewRPCPool needs at least one worker address")
	}
	p := &rpcPool{tune: tune, rng: rand.New(rand.NewSource(jitterSeed))}
	p.ctx, p.cancel = context.WithCancel(ctx)
	for _, addr := range addrs {
		client, err := p.dial(ctx, addr)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("dist: worker %s: %w", addr, err)
		}
		p.workers = append(p.workers, &rpcWorker{addr: addr, client: client})
	}
	p.healthWG.Add(1)
	go p.healthLoop()
	return p, nil
}

// dial connects to one worker under dialTimeout. The context cancels the TCP
// dial immediately (a canceled job does not block in a dial for the full
// timeout).
func (p *rpcPool) dial(ctx context.Context, addr string) (*rpc.Client, error) {
	if err := p.tune.fault.Check(faultinject.DialFail); err != nil {
		return nil, err
	}
	dctx, cancel := context.WithTimeout(ctx, dialTimeout)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(dctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return rpc.NewClient(conn), nil
}

// roundTrip sends one call over client and waits for its reply or for ctx.
func (p *rpcPool) roundTrip(ctx context.Context, client *rpc.Client, method string, args, reply any) error {
	call := client.Go(rpcService+"."+method, args, reply, make(chan *rpc.Call, 1))
	if method == "Solve" && p.tune.fault.Hit(faultinject.RPCSever) {
		// Injected mid-RPC connection drop: the request is on the wire
		// (the worker may well complete it) but the reply path is gone —
		// exactly what a TCP reset mid-call looks like from here.
		client.Close()
	}
	select {
	case <-ctx.Done():
		// The reply (if any) is abandoned; the worker finishes the
		// subtask on its own and keeps its cache warm for the next run.
		return ctx.Err()
	case done := <-call.Done:
		return done.Error
	}
}

// teach registers a system on a worker that answered a task sent at sent
// with "unknown system" — unless a registration of the same system landed
// there after the task left, in which case the task only has to go again.
// (Two never-seen systems racing onto one worker can still ship one of them
// twice; Register is idempotent.)
func (p *rpcPool) teach(ctx context.Context, w *rpcWorker, client *rpc.Client, reg *RegisterArgs, sent time.Time) error {
	w.teachMu.Lock()
	defer w.teachMu.Unlock()
	if w.taught == reg.Key && w.taughtAt.After(sent) {
		return nil
	}
	if err := p.roundTrip(ctx, client, "Register", reg, &RegisterReply{}); err != nil {
		return err
	}
	w.taught, w.taughtAt = reg.Key, time.Now()
	return nil
}

// Solve implements Pool.
func (p *rpcPool) Solve(ctx context.Context, sys *System, task Task, req Request) (*TaskResult, error) {
	blob, key, err := sys.wire()
	if err != nil {
		return nil, err
	}
	args := &SolveArgs{System: key, Task: task, Req: req}
	retried, probed := 0, false
	var lastErr error
	// Every worker gets at most two chances for this task: its original
	// dispatch and one more after a successful mid-task revival (a restarted
	// matexd), so a flapping worker cannot trap the task in a retry loop.
	for attempt := 0; attempt < 2*len(p.workers); attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("dist: group %d canceled: %w", task.GroupID, err)
		}
		w, client := p.pick()
		if w == nil && !probed {
			// Every worker is buried: one probe round now, rather than fail
			// a task the prober's next tick would have had a worker for.
			probed = true
			p.probeBuried(ctx)
			w, client = p.pick()
		}
		if w == nil {
			break
		}
		start := time.Now()
		var reply SolveReply
		err := p.roundTrip(ctx, client, "Solve", args, &reply)
		if isUnknownSystem(err) {
			// The one way a worker learns a circuit — new, restarted or
			// having evicted it. Not a retry: nothing failed.
			if err = p.teach(ctx, w, client, &RegisterArgs{Key: key, Blob: blob}, start); err == nil {
				start = time.Now()
				err = p.roundTrip(ctx, client, "Solve", args, &reply)
			}
		}
		if err == nil {
			return &TaskResult{Result: reply.Result, Elapsed: time.Since(start), Retried: retried, Worker: w.addr}, nil
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("dist: group %d canceled: %w", task.GroupID, ctx.Err())
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
		if !isTransportError(err) {
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
	d := p.tune.backoffBase << uint(i)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	p.mu.Lock()
	jitter := 0.75 + 0.5*p.rng.Float64() // ±25%
	p.mu.Unlock()
	return time.Duration(float64(d) * jitter)
}

// reviveOrBury handles a worker whose transport failed: up to
// redialAttempts redials under capped exponential backoff with jitter (a
// restarted matexd lives on, and is re-taught by its next task), else bury
// it — the health prober keeps probing buried workers. failed is the
// connection the caller observed failing; if another goroutine already
// revived or buried the worker, it is left alone. The sleeps hold no pool
// lock, so other workers dispatch undisturbed, and they abort as soon as
// ctx fires or the pool closes.
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
redial:
	for i := 0; i < p.tune.redialAttempts; i++ {
		if i > 0 {
			select {
			case <-ctx.Done():
				break redial
			case <-p.ctx.Done():
				break redial
			case <-time.After(p.backoff(i - 1)):
			}
		}
		if client, err := p.dial(ctx, w.addr); err == nil {
			p.mu.Lock()
			w.client, w.dead = client, false
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

// healthLoop is the background prober: every probeInterval it redials the
// buried workers once each and re-admits the ones that answer. It exits when
// the pool closes or the context it was created under fires.
func (p *rpcPool) healthLoop() {
	defer p.healthWG.Done()
	tick := time.NewTicker(p.tune.probeInterval)
	defer tick.Stop()
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-tick.C:
			p.probeBuried(p.ctx)
		}
	}
}

// probeBuried attempts one dial per buried worker and revives on success.
func (p *rpcPool) probeBuried(ctx context.Context) {
	for _, w := range p.workers {
		w.revMu.Lock()
		p.mu.Lock()
		dead := w.dead // read under revMu: no Solve goroutine is reviving it
		p.mu.Unlock()
		if dead {
			if client, err := p.dial(ctx, w.addr); err == nil {
				p.mu.Lock()
				w.client.Close() // a retired worker's connection was still open
				w.client, w.dead = client, false
				p.mu.Unlock()
			}
		}
		w.revMu.Unlock()
	}
}

// Close implements Pool: it stops the health prober and closes every
// client, including retired and buried workers' (revival already closed the
// latter's connection — the second Close reports ErrShutdown, which is not
// an error here).
//
//matex:ctx-exempt(joins the pool's own background prober, which the cancel just above stops mid-dial)
func (p *rpcPool) Close() error {
	p.cancel()
	p.healthWG.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	var first error
	for _, w := range p.workers {
		if err := w.client.Close(); err != nil && !errors.Is(err, rpc.ErrShutdown) && first == nil {
			first = err
		}
	}
	return first
}

// isUnknownSystem matches a worker's answer for a circuit it does not hold
// (errUnknownSystem, in its rpc.ServerError form).
func isUnknownSystem(err error) bool {
	return err != nil && strings.Contains(err.Error(), errUnknownSystem.Error())
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
