package job

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"github.com/matex-sim/matex/internal/dist"
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

// remotePool runs one distributed run's tasks on job servers. A task is the
// run's own spec narrowed to the task's inputs, with its deck inline (the
// netlist text, or the case and scale), posted to a worker's /v1/simulate:
// the worker resolves it exactly as the coordinator resolved the run, and
// its stream is the task's rows with its work counters in the tail. Tasks go
// round-robin over the workers not yet failed in this run. A transport
// error, a draining or full worker (503, 429) and a job canceled under the
// task move it whole to the next worker, and that worker is skipped for the
// rest of the run; any other refusal, and a failed job, is the answer.
type remotePool struct {
	spec  Spec
	addrs []string

	mu     sync.Mutex
	next   int
	failed []bool
}

// remotePool builds the pool of one distributed run of t over addrs.
func (t *Task) remotePool(addrs []string) *remotePool {
	spec := t.spec
	spec.Distributed, spec.TimeoutSec, spec.Netlist = false, 0, t.deck.text
	return &remotePool{spec: spec, addrs: addrs, failed: make([]bool, len(addrs))}
}

// Nodes implements dist.Pool.
func (p *remotePool) Nodes() int { return len(p.addrs) }

// Solve implements dist.Pool. The Request is the run's own, which the
// task's spec already says; the worker's result has no final state.
func (p *remotePool) Solve(ctx context.Context, _ *dist.System, task dist.Task, _ dist.Request) (*dist.TaskResult, error) {
	spec := p.spec
	spec.Inputs = task.InputIdx
	body, err := json.Marshal(&spec)
	if err != nil {
		return nil, err
	}
	last := errors.New("every worker failed earlier in the run")
	for retried := 0; ; retried++ {
		w, ok := p.pick()
		if !ok {
			return nil, &NoWorkerError{Group: task.GroupID, Err: last}
		}
		start := time.Now()
		res, retry, err := post(ctx, p.addrs[w], body)
		switch {
		case err == nil:
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

// chunk is one line of a job stream after its header: a sample, or the done
// tail with the job's state, error and work counters.
type chunk struct {
	T     float64          `json:"t"`
	V     []float64        `json:"v"`
	Done  bool             `json:"done"`
	State string           `json:"state"`
	Error string           `json:"error"`
	Stats *transient.Stats `json:"stats"`
}

// post runs one task spec on the worker at addr and reads its stream into the
// task's result. retry reports a failure the next worker may not have: the
// transport, a draining or full worker, a job canceled under the task. When
// ctx ends while the job runs, the job is canceled on the worker.
func post(ctx context.Context, addr string, body []byte) (res *transient.Result, retry bool, err error) {
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
		var reply struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&reply); err != nil {
			reply.Error = err.Error()
		}
		code := resp.StatusCode
		return nil, code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests,
			fmt.Errorf("worker %s: %s: %s", addr, resp.Status, reply.Error)
	}
	dec := json.NewDecoder(resp.Body)
	var head struct {
		ID string `json:"id"`
	}
	if err := dec.Decode(&head); err != nil {
		return nil, true, fmt.Errorf("worker %s: %w", addr, err)
	}
	res = &transient.Result{}
	for {
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
			res.Times, res.Probes = append(res.Times, c.T), append(res.Probes, c.V)
			continue
		}
		switch c.State {
		case "done":
			if c.Stats != nil {
				res.Stats = *c.Stats
			}
			return res, false, nil
		case "failed":
			return nil, false, errors.New(c.Error)
		}
		return nil, true, fmt.Errorf("worker %s: job %s ended %s: %s", addr, head.ID, c.State, c.Error)
	}
}

// cancelJob asks the worker at addr to cancel job id, whose stream a canceled
// run stopped reading, so the worker does not integrate it to the end.
func cancelJob(ctx context.Context, addr, id string) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), cancelTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, "http://"+addr+"/v1/jobs/"+url.PathEscape(id), nil)
	if err != nil {
		return
	}
	if resp, err := workerClient.Do(req); err == nil {
		resp.Body.Close()
	}
}
