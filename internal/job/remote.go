package job

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/matex-sim/matex/internal/dist"
	"github.com/matex-sim/matex/internal/memo"
	"github.com/matex-sim/matex/internal/transient"
)

// A connect to a worker is bounded by dialTimeout, and the request that
// cancels a task's job on its worker by cancelTimeout. Nothing bounds a task
// once it runs: task runtimes vary by orders of magnitude with system size,
// and a stuck (not dead) worker is only ever left by canceling the run.
const (
	dialTimeout   = 10 * time.Second
	cancelTimeout = 5 * time.Second
)

// workerClient opens one connection per request and keeps none: a pool holds
// no connection state between tasks or runs.
var workerClient = &http.Client{Transport: &http.Transport{
	DialContext:       (&net.Dialer{Timeout: dialTimeout}).DialContext,
	DisableKeepAlives: true,
}}

// NoWorkerError is a distributed run's task that no worker answered: each
// was down, draining or full by the time the task reached it.
type NoWorkerError struct {
	Group int   // the task's GroupID
	Err   error // the last worker's failure
}

func (e *NoWorkerError) Error() string {
	return fmt.Sprintf("dist: group %d failed on all workers: %v", e.Group, e.Err)
}

func (e *NoWorkerError) Unwrap() error { return e.Err }

// RetryMismatchError is a re-posted task whose new worker streamed a row
// other than the one an earlier worker had already delivered to the fold at
// the same position: the two workers disagree, and neither answer stands.
type RetryMismatchError struct {
	Worker string // the worker the task was re-posted to
	Row    int    // 0-based position of the first row that differs
}

func (e *RetryMismatchError) Error() string {
	return fmt.Sprintf("worker %s streamed row %d other than the row already delivered", e.Worker, e.Row)
}

// errDeckNotHeld is a worker's 404 to a task that names its deck by hash.
var errDeckNotHeld = errors.New("the worker does not hold the deck")

// remotePool runs one distributed run's tasks on job servers. A task is the
// run's own spec narrowed to the task's inputs — the first task also asks
// for the DC point ("dc") — naming its deck by hash (a pgbench case by name
// and scale), posted to a worker's /v1/simulate: the worker resolves it
// exactly as the coordinator resolved the run, and its stream is the task's
// rows, each handed to the fold as it arrives, with its work counters in the
// tail. A worker that does not hold the deck answers 404; the pool then PUTs
// the text to its /v1/decks/{hash} — once per worker and run, however many
// of the run's tasks it holds — and posts the task again. Tasks go
// round-robin over the workers not yet failed in this run. A transport
// error, a draining or full worker (503, 429), a job canceled under the
// task and a 404 after the worker's PUT (the deck evicted, or the worker
// restarted) move the task whole to the next worker, and that worker is
// skipped for the rest of the run; any other refusal, and a failed job, is
// the answer.
type remotePool struct {
	spec  Spec
	text  string // the deck text a worker that does not hold it is sent; empty for a case
	addrs []string

	// puts is the run's one PUT of its deck to each worker, by address:
	// concurrent tasks that find a worker without the deck wait for one PUT,
	// and a worker that took one holds an entry. The value is the PUT's
	// retry verdict.
	puts *memo.Store[string, bool]

	mu     sync.Mutex
	next   int
	failed []bool
}

// remotePool builds the pool of one distributed run of t over addrs.
func (t *Task) remotePool(addrs []string) *remotePool {
	spec := t.spec
	spec.Distributed, spec.TimeoutSec = false, 0
	if t.deck.text != "" {
		spec.Netlist, spec.Deck = "", t.deck.hash
	}
	puts := memo.New[string, bool](memo.NewBudget(0)) // entries are charged nothing
	return &remotePool{spec: spec, text: t.deck.text, addrs: addrs, puts: puts, failed: make([]bool, len(addrs))}
}

// Nodes implements dist.Pool.
func (p *remotePool) Nodes() int { return len(p.addrs) }

// Solve implements dist.Pool. The Request is the run's own, which the
// task's spec already says; only its OnSample, the task's lane of the fold,
// is used. The worker's result has no final state.
func (p *remotePool) Solve(ctx context.Context, _ *dist.System, task dist.Task, req dist.Request) (*dist.TaskResult, error) {
	spec := p.spec
	spec.Inputs, spec.DC = task.InputIdx, task.DC
	body, err := json.Marshal(&spec)
	if err != nil {
		return nil, err
	}
	rows := &taskRows{emit: req.Options.OnSample}
	last := errors.New("every worker failed earlier in the run")
	for retried := 0; ; retried++ {
		w, ok := p.pick()
		if !ok {
			return nil, &NoWorkerError{Group: task.GroupID, Err: last}
		}
		start := time.Now()
		stats, retry, err := p.solveOn(ctx, p.addrs[w], body, rows)
		switch {
		case err == nil:
			res := &transient.Result{Times: rows.times, Probes: rows.rows, Stats: *stats}
			return &dist.TaskResult{Result: res, Elapsed: time.Since(start), Retried: retried, Worker: p.addrs[w]}, nil
		case ctx.Err() != nil:
			return nil, fmt.Errorf("dist: group %d canceled: %w", task.GroupID, ctx.Err())
		case !retry:
			return nil, fmt.Errorf("dist: group %d: %w", task.GroupID, err)
		}
		p.mu.Lock()
		p.failed[w] = true
		p.mu.Unlock()
		last = err
	}
}

// solveOn runs the task spec body on the worker at addr, sending it the deck
// first if it answers that it does not hold it.
func (p *remotePool) solveOn(ctx context.Context, addr string, body []byte, rows *taskRows) (*transient.Stats, bool, error) {
	_, sent := p.puts.Peek(addr)
	stats, retry, err := post(ctx, addr, body, rows)
	if errors.Is(err, errDeckNotHeld) && p.text != "" && !sent {
		var putErr error
		retry, _, putErr = p.puts.Get(addr, func() (bool, int64, error) {
			retry, err := putDeck(ctx, addr, p.spec.Deck, p.text)
			return retry, 0, err
		})
		if putErr != nil {
			return nil, retry, putErr
		}
		stats, retry, err = post(ctx, addr, body, rows)
	}
	if errors.Is(err, errDeckNotHeld) && p.text != "" {
		retry = true // lost after its PUT: the next worker, not another PUT
	}
	return stats, retry, err
}

// pick returns the next worker round-robin that has not failed in this run.
func (p *remotePool) pick() (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for range p.addrs {
		w := p.next % len(p.addrs)
		p.next++
		if !p.failed[w] {
			return w, true
		}
	}
	return 0, false
}

// taskRows are one task's rows as delivered to the fold, across every worker
// the task was posted to: a re-posted task's worker streams them from the
// start again, and the ones already delivered are compared, bit for bit,
// instead of delivered twice.
type taskRows struct {
	emit  func(t float64, row []float64) // the task's lane of the fold; nil: none
	times []float64
	rows  [][]float64
}

// take accepts the worker at addr's row i.
func (r *taskRows) take(addr string, i int, t float64, row []float64) error {
	if i < len(r.times) {
		if !sameBits(t, r.times[i]) || !slices.EqualFunc(row, r.rows[i], sameBits) {
			return &RetryMismatchError{Worker: addr, Row: i}
		}
		return nil
	}
	r.times, r.rows = append(r.times, t), append(r.rows, row)
	if r.emit != nil {
		r.emit(t, row)
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// chunk is one line of a job stream after its header: a sample, or the done
// tail with the job's state, error and work counters.
type chunk struct {
	T     float64         `json:"t"`
	V     []float64       `json:"v"`
	Done  bool            `json:"done"`
	State string          `json:"state"`
	Error string          `json:"error"`
	Stats json.RawMessage `json:"stats"`
}

// post runs one task spec on the worker at addr, handing each row of its
// stream to rows as it arrives, and returns the job's work counters. retry
// reports a failure the next worker may not have: the transport, a draining
// or full worker, a job canceled under the task. A worker that does not hold
// the deck the spec names answers errDeckNotHeld. When ctx ends while the job
// runs, or its rows disagree with rows already delivered, the job is
// canceled on the worker.
func post(ctx context.Context, addr string, body []byte, rows *taskRows) (stats *transient.Stats, retry bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := workerClient.Do(req)
	if err != nil {
		return nil, true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		retry, err := refusal(addr, resp)
		if resp.StatusCode == http.StatusNotFound {
			err = fmt.Errorf("%w: %w", errDeckNotHeld, err)
		}
		return nil, retry, err
	}
	dec := json.NewDecoder(resp.Body)
	var head struct {
		ID string `json:"id"`
	}
	if err := dec.Decode(&head); err != nil {
		return nil, true, fmt.Errorf("worker %s: %w", addr, err)
	}
	for i := 0; ; i++ {
		var c chunk
		if err := dec.Decode(&c); err != nil {
			if ctx.Err() != nil {
				cancelJob(ctx, addr, head.ID)
			}
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // a stream ends on its tail
			}
			return nil, true, fmt.Errorf("worker %s: job %s: %w", addr, head.ID, err)
		}
		if !c.Done {
			if err := rows.take(addr, i, c.T, c.V); err != nil {
				cancelJob(ctx, addr, head.ID)
				return nil, false, err
			}
			continue
		}
		switch c.State {
		case "done":
			if i < len(rows.times) {
				return nil, false, &RetryMismatchError{Worker: addr, Row: i}
			}
			// Strictly: encoding/json would drop a key this build does not
			// spell (a worker of another build's) and read its counter as 0.
			stats, sd := &transient.Stats{}, json.NewDecoder(bytes.NewReader(c.Stats))
			sd.DisallowUnknownFields()
			if err := sd.Decode(stats); err != nil && len(c.Stats) > 0 {
				return nil, false, fmt.Errorf("worker %s: job %s: stats not in this build's spelling (a coordinator and its workers must be one build): %w", addr, head.ID, err)
			}
			return stats, false, nil
		case "failed":
			return nil, false, errors.New(c.Error)
		}
		return nil, true, fmt.Errorf("worker %s: job %s ended %s: %s", addr, head.ID, c.State, c.Error)
	}
}

// putDeck sends the worker at addr the deck text under its hash. retry
// reports a failure the next worker may not have: the transport, a draining
// or full worker.
func putDeck(ctx context.Context, addr, hash, text string) (retry bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, "http://"+addr+"/v1/decks/"+hash, strings.NewReader(text))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := workerClient.Do(req)
	if err != nil {
		return true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return refusal(addr, resp)
	}
	return false, nil
}

// refusal reads a worker's non-2xx answer into an error; retry reports a
// draining or full worker (503, 429), which the next worker may not be.
func refusal(addr string, resp *http.Response) (retry bool, err error) {
	var reply struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&reply); err != nil {
		reply.Error = err.Error()
	}
	code := resp.StatusCode
	return code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests,
		fmt.Errorf("worker %s: %s: %s", addr, resp.Status, reply.Error)
}

// cancelJob asks the worker at addr to cancel job id, whose stream the pool
// stopped reading, so the worker does not integrate it to the end.
func cancelJob(ctx context.Context, addr, id string) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), cancelTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, "http://"+addr+"/v1/jobs/"+url.PathEscape(id), nil)
	if err != nil {
		return
	}
	if resp, err := workerClient.Do(req); err == nil {
		resp.Body.Close() // best effort: the status is not read
	}
}
