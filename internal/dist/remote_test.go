package dist_test

// D-MATEX over remote workers: a distributed run (internal/job) posts each
// task to a job server (internal/serve, what cmd/matexd and cmd/matexsrv
// run) as a spec of its own, and these tests run real loopback job servers —
// killed, drained, restarted, cut off — under it. Each run ends in one of
// exactly two ways: the rows of the in-process run on the same number of
// nodes, bit for bit, or a clean typed error; never a hang, a leaked
// goroutine or a silently wrong row.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/dist"
	"github.com/matex-sim/matex/internal/job"
	"github.com/matex-sim/matex/internal/netlist"
	"github.com/matex-sim/matex/internal/pdn"
	"github.com/matex-sim/matex/internal/serve"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/transient"
)

// deck is an ibmpg1t-style grid deck as a coordinator and its workers see
// it: the netlist text a task carries, and the system and probes it parses to.
type deck struct {
	text   string
	sys    *circuit.System
	probes []int
	tstop  float64
	step   float64
}

func gridDeck(t *testing.T, scale float64) deck {
	t.Helper()
	spec, err := pdn.IBMCase("ibmpg1t", scale)
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	nd := &netlist.Deck{Circuit: ckt, TranStep: 10e-12, TranStop: spec.Tstop}
	for i := 1; i <= 4; i++ {
		nd.Prints = append(nd.Prints, pdn.NodeName(i*spec.NX/5, i*spec.NY/5))
	}
	var text strings.Builder
	if err := netlist.Write(&text, nd); err != nil {
		t.Fatal(err)
	}
	jd, err := job.ParseDeck(text.String(), false)
	if err != nil {
		t.Fatal(err)
	}
	probes, _, _, err := jd.System().ResolveProbes(nd.Prints)
	if err != nil {
		t.Fatal(err)
	}
	return deck{text: text.String(), sys: jd.System(), probes: probes, tstop: spec.Tstop, step: nd.TranStep}
}

// local runs spec on the in-process pool cut for nodes: the reference every
// remote run of the same node count must reproduce bit for bit.
func (d deck) local(t *testing.T, spec job.Spec, nodes int) (*transient.Result, *dist.Report) {
	t.Helper()
	method, err := transient.ParseMethod(spec.Method)
	if err != nil {
		t.Fatal(err)
	}
	step := spec.Step
	if step == 0 {
		step = d.step
	}
	base := transient.Options{Tstop: d.tstop, Step: step, Tol: spec.Tol, Probes: d.probes}
	res, rep, err := dist.Run(dist.NewSystem(d.sys), method, dist.Config{Base: base, Workers: nodes})
	if err != nil {
		t.Fatal(err)
	}
	return res, rep
}

// remote runs spec as a distributed job over workers, the way `matex
// -workers` does, collecting the rows it delivers.
func (d deck) remote(ctx context.Context, spec job.Spec, workers []string, cache *sparse.Cache) (*transient.Result, *job.Outcome, error) {
	jd, err := job.ParseDeck(d.text, true)
	if err != nil {
		return nil, nil, err
	}
	spec.Distributed = true
	task, err := spec.Resolve(jd)
	if err != nil {
		return nil, nil, err
	}
	res := &transient.Result{}
	var mu sync.Mutex
	out, err := task.Run(ctx, job.Hooks{Cache: cache, Workers: workers, OnSample: func(_ string, tt float64, row []float64) {
		mu.Lock()
		defer mu.Unlock()
		if n := len(res.Times); n > 0 && tt <= res.Times[n-1] {
			panic("rows out of time order")
		}
		res.Times, res.Probes = append(res.Times, tt), append(res.Probes, append([]float64(nil), row...))
	}})
	return res, out, err
}

// sameRows reports whether two runs delivered the same rows, bit for bit.
func sameRows(a, b *transient.Result) bool {
	return reflect.DeepEqual(a.Times, b.Times) && reflect.DeepEqual(a.Probes, b.Probes)
}

// worker is a job server on a loopback port.
type worker struct {
	addr string
	srv  *serve.Server
	hs   *http.Server
}

// startWorker serves a fresh job server on addr ("127.0.0.1:0" for any
// port); the test's cleanup kills it.
func startWorker(t *testing.T, addr string, cfg serve.Config) *worker {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	w := &worker{addr: l.Addr().String(), srv: srv, hs: &http.Server{Handler: srv.Handler()}}
	go w.hs.Serve(l)
	t.Cleanup(w.kill)
	return w
}

// kill is kill -9 from a coordinator's side: the listener and every
// connection close at once, streams in flight stop mid-row, and the jobs
// running are abandoned.
func (w *worker) kill() {
	w.hs.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w.srv.Shutdown(ctx)
}

func (w *worker) stats(t *testing.T) serve.StatsReply {
	t.Helper()
	resp, err := http.Get("http://" + w.addr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.StatsReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitInFlight polls the worker until it runs n jobs.
func (w *worker) waitInFlight(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for w.stats(t).InFlight != n {
		if time.Now().After(deadline) {
			t.Fatalf("worker %s never had %d jobs in flight", w.addr, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// guardGoroutines snapshots the goroutine count and returns a check that
// fails if it has not come back to (near) the baseline: no pool, stream or
// cancel request may outlive its run.
func guardGoroutines(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			http.DefaultTransport.(*http.Transport).CloseIdleConnections() // the test's own status reads
			if runtime.NumGoroutine() <= base+2 {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d at start, %d now\n%s", base, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// retriedTask returns the row of the one task a fault hit, which must be a
// merged one: the fault tests run two-node plans over several groups.
func retriedTask(t *testing.T, rep *dist.Report) dist.TaskReport {
	t.Helper()
	if rep.Tasks != 2 || rep.Groups <= 2 {
		t.Fatalf("%d groups in %d tasks: not a merged two-node plan", rep.Groups, rep.Tasks)
	}
	var hit []dist.TaskReport
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

// slow is a spec whose tasks integrate long enough (fixed-step TR at a
// fine step) for a test to act on a worker while they run.
var slow = job.Spec{Method: "tr", Step: 2e-13}

// TestDistRPCLoopback runs the same decomposition over two loopback job
// servers and over a two-node in-process pool and demands bit-identical
// results: same node count ⇒ same plan ⇒ the identical computation in the
// identical order on both paths.
func TestDistRPCLoopback(t *testing.T) {
	d := gridDeck(t, 0.2)
	spec := job.Spec{Tol: 1e-7}
	local, repL := d.local(t, spec, 2)
	w1, w2 := startWorker(t, "127.0.0.1:0", serve.Config{}), startWorker(t, "127.0.0.1:0", serve.Config{})
	remote, out, err := d.remote(context.Background(), spec, []string{w1.addr, w2.addr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	repR := out.Dist
	if repR.Groups != repL.Groups || repR.Tasks != 2 || repL.Tasks != 2 {
		t.Fatalf("plans differ: %d groups in %d tasks vs %d in %d", repR.Groups, repR.Tasks, repL.Groups, repL.Tasks)
	}
	for i := range repR.PerTask {
		if !reflect.DeepEqual(repR.PerTask[i].Groups, repL.PerTask[i].Groups) {
			t.Fatalf("task %d holds groups %v remotely, %v in-process", i, repR.PerTask[i].Groups, repL.PerTask[i].Groups)
		}
		if repR.PerTask[i].Worker == "" || repL.PerTask[i].Worker != "" {
			t.Errorf("task %d worker: %q remotely, %q in-process", i, repR.PerTask[i].Worker, repL.PerTask[i].Worker)
		}
		if !reflect.DeepEqual(repR.TaskStats[i].KrylovDims, repL.TaskStats[i].KrylovDims) || repR.TaskStats[i].SolvePairs != repL.TaskStats[i].SolvePairs {
			t.Errorf("task %d: the worker's counters are not the in-process task's", i)
		}
	}
	if repR.Retried != 0 {
		t.Errorf("unexpected retries on healthy workers: %d", repR.Retried)
	}
	if !sameRows(remote, local) {
		t.Error("the rows over two job servers are not the two-node in-process rows")
	}
	if w1.stats(t).Completed+w2.stats(t).Completed != 2 {
		t.Error("the workers did not complete one task job each")
	}
}

// TestRunStreamsTheSuperposition: the superposed rows leave one at a time,
// in time order, row 0 being x_DC — whether the tasks stream in-process
// (MATEX lanes on the grid, fixed-step lanes interpolated onto it) or land
// whole from job servers — and they are the rows of the run's Result.
func TestRunStreamsTheSuperposition(t *testing.T) {
	d := gridDeck(t, 0.2)
	xdc, _, err := transient.DC(d.sys, transient.Options{}, &transient.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	rowZeroIsDC := func(t *testing.T, rows *transient.Result) {
		t.Helper()
		for k, p := range d.probes {
			if rows.Probes[0][k] != xdc[p] {
				t.Fatalf("row 0 column %d is %g, x_DC %g", k, rows.Probes[0][k], xdc[p])
			}
		}
	}
	for _, c := range []struct {
		name   string
		method string
	}{
		{"rmatex in-process", "rmatex"},
		{"tr in-process", "tr"},
		{"tradpt in-process", "tradpt"},
	} {
		t.Run(c.name, func(t *testing.T) {
			method, err := transient.ParseMethod(c.method)
			if err != nil {
				t.Fatal(err)
			}
			rows := &transient.Result{}
			var busy atomic.Bool
			base := transient.Options{Tstop: d.tstop, Step: 0.7e-9, Tol: 1e-7, Probes: d.probes, OnSample: func(tt float64, row []float64) {
				if !busy.CompareAndSwap(false, true) {
					t.Error("two rows delivered at once")
				}
				defer busy.Store(false)
				rows.Times, rows.Probes = append(rows.Times, tt), append(rows.Probes, append([]float64(nil), row...))
			}}
			res, rep, err := dist.Run(dist.NewSystem(d.sys), method, dist.Config{Base: base, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Tasks < 2 {
				t.Fatalf("%d tasks", rep.Tasks)
			}
			if !sameRows(rows, res) {
				t.Fatalf("streamed %d rows that are not the result's %d", len(rows.Times), len(res.Times))
			}
			rowZeroIsDC(t, rows)
		})
	}
	t.Run("rmatex over tcp", func(t *testing.T) {
		spec := job.Spec{Tol: 1e-7}
		local, _ := d.local(t, spec, 2)
		w1, w2 := startWorker(t, "127.0.0.1:0", serve.Config{}), startWorker(t, "127.0.0.1:0", serve.Config{})
		rows, out, err := d.remote(context.Background(), spec, []string{w1.addr, w2.addr}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.Dist.Tasks < 2 {
			t.Fatalf("%d tasks", out.Dist.Tasks)
		}
		if !sameRows(rows, local) {
			t.Fatal("the rows over two job servers are not the in-process result's")
		}
		rowZeroIsDC(t, rows)
	})
}

// TestDistWorkerFailureRetry: one of two workers is dead before the run
// starts; the task it is handed moves whole to the survivor, surfaces in
// Report.Retried, and the rows are still the in-process ones.
func TestDistWorkerFailureRetry(t *testing.T) {
	d := gridDeck(t, 0.2)
	spec := job.Spec{Tol: 1e-7}
	local, _ := d.local(t, spec, 2)
	survivor, victim := startWorker(t, "127.0.0.1:0", serve.Config{}), startWorker(t, "127.0.0.1:0", serve.Config{})
	victim.kill()
	remote, out, err := d.remote(context.Background(), spec, []string{victim.addr, survivor.addr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dist.Retried == 0 {
		t.Error("the dead worker did not surface in Report.Retried")
	}
	for i, task := range out.Dist.PerTask {
		if task.Worker != survivor.addr {
			t.Errorf("task %d ran on %q, want the survivor", i, task.Worker)
		}
	}
	if !sameRows(remote, local) {
		t.Error("the failover run's rows are not the in-process ones")
	}
}

// TestDistRPCPoolRejectsDeadAddress: a run whose only worker is unreachable
// fails at once with the typed error naming the task's group, not after a
// redial loop.
func TestDistRPCPoolRejectsDeadAddress(t *testing.T) {
	d := gridDeck(t, 0.1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()
	began := time.Now()
	_, _, err = d.remote(context.Background(), job.Spec{}, []string{dead}, nil)
	var none *job.NoWorkerError
	if !errors.As(err, &none) || !strings.Contains(err.Error(), "group 0 failed on all workers") || !strings.Contains(err.Error(), dead) {
		t.Fatalf("run over a closed port: %v, want a NoWorkerError naming group 0 and the address", err)
	}
	if took := time.Since(began); took > 5*time.Second {
		t.Fatalf("the dead address took %v to surface", took)
	}
}

// TestDistRepeatedRunZeroFactorizations is the distributed acceptance test
// for the factorization cache: against the same worker, with the
// coordinator reusing one cache, the second run performs zero new
// factorizations anywhere — the worker serves every operator from its
// cache (its counters travel back in each task's stream tail) and the
// coordinator's DC factorization hits too.
func TestDistRepeatedRunZeroFactorizations(t *testing.T) {
	d := gridDeck(t, 0.2)
	w := startWorker(t, "127.0.0.1:0", serve.Config{})
	cache := sparse.NewCache(0)
	spec := job.Spec{Tol: 1e-7}
	first, out1, err := d.remote(context.Background(), spec, []string{w.addr}, cache)
	if err != nil {
		t.Fatal(err)
	}
	if out1.Stats.Factorizations == 0 {
		t.Fatal("first run reports no factorizations at all")
	}
	second, out2, err := d.remote(context.Background(), spec, []string{w.addr}, cache)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Stats.Factorizations != 0 {
		t.Errorf("second run against the same worker factorized %d times, want 0", out2.Stats.Factorizations)
	}
	if out2.Stats.CacheHits == 0 {
		t.Error("second run recorded no cache hits")
	}
	if !sameRows(first, second) {
		t.Error("cached repeat is not bit-identical")
	}
}

// TestServeContextGracefulDrain: a worker that begins draining while it
// runs a task answers that task to the end, and the run lands it with no
// retry; the drained worker then shuts down cleanly, and a later run finds
// it gone.
func TestServeContextGracefulDrain(t *testing.T) {
	d := gridDeck(t, 0.15)
	local, _ := d.local(t, slow, 1)
	w := startWorker(t, "127.0.0.1:0", serve.Config{})

	type result struct {
		rows *transient.Result
		out  *job.Outcome
		err  error
	}
	done := make(chan result, 1)
	go func() {
		rows, out, err := d.remote(context.Background(), slow, []string{w.addr}, nil)
		done <- result{rows, out, err}
	}()
	w.waitInFlight(t, 1)
	w.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.hs.Shutdown(ctx); err != nil { // waits for the task's stream
		t.Fatalf("the worker's listener did not drain: %v", err)
	}
	if err := w.srv.Shutdown(ctx); err != nil {
		t.Fatalf("the worker did not drain: %v", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("the task in flight when its worker began draining: %v", r.err)
	}
	if r.out.Dist.Retried != 0 || !sameRows(r.rows, local) {
		t.Fatalf("the drained task landed with %d retries, rows equal to in-process: %v", r.out.Dist.Retried, sameRows(r.rows, local))
	}
	var none *job.NoWorkerError
	if _, _, err := d.remote(context.Background(), slow, []string{w.addr}, nil); !errors.As(err, &none) {
		t.Fatalf("run against the drained worker: %v, want a NoWorkerError", err)
	}
}

// TestWorkerRejectsWhileDraining: a draining worker answers a new task 503
// rather than queueing or solving it, and the run moves the task to its
// other worker, counted as a retry, to the same rows.
func TestWorkerRejectsWhileDraining(t *testing.T) {
	d := gridDeck(t, 0.2)
	spec := job.Spec{Tol: 1e-7}
	local, _ := d.local(t, spec, 2)
	draining, live := startWorker(t, "127.0.0.1:0", serve.Config{}), startWorker(t, "127.0.0.1:0", serve.Config{})
	draining.srv.BeginDrain()

	resp, err := http.Post("http://"+draining.addr+"/v1/simulate", "application/json", strings.NewReader(`{"case":"ibmpg1t","scale":0.1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("a draining worker answered a task %d, want 503", resp.StatusCode)
	}

	remote, out, err := d.remote(context.Background(), spec, []string{draining.addr, live.addr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dist.Retried != 1 {
		t.Errorf("%d retries, want the one task the draining worker refused", out.Dist.Retried)
	}
	for i, task := range out.Dist.PerTask {
		if task.Worker != live.addr {
			t.Errorf("task %d ran on %q, want the live worker", i, task.Worker)
		}
	}
	if !sameRows(remote, local) {
		t.Error("rows after the draining worker's refusal are not the in-process ones")
	}
	if st := draining.stats(t); st.Accepted != 0 {
		t.Errorf("the draining worker accepted %d jobs", st.Accepted)
	}
}

// TestAllBuriedProbesBeforeFailing: with every worker down the run fails at
// once with the typed error naming the group — no hang, no leaked
// goroutine — and a run holds no worker state past its end, so the next run
// after a worker came back on the same address reaches it with no retry.
func TestAllBuriedProbesBeforeFailing(t *testing.T) {
	leak := guardGoroutines(t)
	d := gridDeck(t, 0.2)
	spec := job.Spec{Tol: 1e-7}
	local, _ := d.local(t, spec, 1)

	w := startWorker(t, "127.0.0.1:0", serve.Config{})
	if _, _, err := d.remote(context.Background(), spec, []string{w.addr}, nil); err != nil {
		t.Fatal(err)
	}
	w.kill()
	var none *job.NoWorkerError
	if _, _, err := d.remote(context.Background(), spec, []string{w.addr}, nil); !errors.As(err, &none) || none.Group != 0 {
		t.Fatalf("run with the only worker down: %v, want a NoWorkerError for group 0", err)
	}

	back := startWorker(t, w.addr, serve.Config{})
	got, out, err := d.remote(context.Background(), spec, []string{back.addr}, nil)
	if err != nil {
		t.Fatalf("run after the worker came back: %v", err)
	}
	if out.Dist.Retried != 0 || !sameRows(got, local) {
		t.Fatalf("run after the worker came back: %d retries, rows equal to in-process: %v", out.Dist.Retried, sameRows(got, local))
	}
	back.kill()
	leak()
}

// TestFaultRPCSeverRetriesAndMatches cuts the connection to one of two
// workers while it holds a merged task (a TCP reset with rows in flight;
// the worker itself lives on): the run re-sends the task whole to the other
// worker, counts the retry, and still delivers the in-process rows.
func TestFaultRPCSeverRetriesAndMatches(t *testing.T) {
	leak := guardGoroutines(t)
	d := gridDeck(t, 0.2)
	local, _ := d.local(t, slow, 2)
	cut, other := startWorker(t, "127.0.0.1:0", serve.Config{}), startWorker(t, "127.0.0.1:0", serve.Config{})
	proxy := newKillableProxy(t, cut.addr)

	type result struct {
		rows *transient.Result
		out  *job.Outcome
		err  error
	}
	done := make(chan result, 1)
	go func() {
		rows, out, err := d.remote(context.Background(), slow, []string{proxy.addr(), other.addr}, nil)
		done <- result{rows, out, err}
	}()
	cut.waitInFlight(t, 1)
	proxy.Kill()
	r := <-done
	if r.err != nil {
		t.Fatalf("run with a severed connection failed outright: %v", r.err)
	}
	if got := retriedTask(t, r.out.Dist).Worker; got != other.addr {
		t.Errorf("the severed task finished on %q, want %s", got, other.addr)
	}
	if !sameRows(r.rows, local) {
		t.Error("the rows after the sever are not the in-process ones")
	}
	cut.kill()
	other.kill()
	leak()
}

// TestFaultWorkerCrashFailsOver kills one of two workers (kill -9: the
// listener and every connection gone at once) while it holds a merged task:
// the task lands whole on the survivor, the retry is counted, and the rows
// are the in-process ones, bit for bit.
func TestFaultWorkerCrashFailsOver(t *testing.T) {
	leak := guardGoroutines(t)
	d := gridDeck(t, 0.2)
	local, _ := d.local(t, slow, 2)
	victim, survivor := startWorker(t, "127.0.0.1:0", serve.Config{}), startWorker(t, "127.0.0.1:0", serve.Config{})

	type result struct {
		rows *transient.Result
		out  *job.Outcome
		err  error
	}
	done := make(chan result, 1)
	go func() {
		rows, out, err := d.remote(context.Background(), slow, []string{victim.addr, survivor.addr}, nil)
		done <- result{rows, out, err}
	}()
	victim.waitInFlight(t, 1)
	victim.kill()
	r := <-done
	if r.err != nil {
		t.Fatalf("run did not survive the worker crash: %v", r.err)
	}
	if got := retriedTask(t, r.out.Dist).Worker; got != survivor.addr {
		t.Errorf("crash-interrupted task finished on %q, want the survivor %s", got, survivor.addr)
	}
	if !sameRows(r.rows, local) {
		t.Error("the failover rows are not the in-process ones")
	}
	survivor.kill()
	leak()
}

// TestUnknownSystemRegistersOnce: a worker learns a deck from the one PUT a
// run sends it when its first task, naming the deck by hash, is answered
// 404 (one parse); a warm run sends no text and parses nothing; and a
// restarted worker, holding nothing, learns it again the same way — with no
// retry, since a run keeps no connection to find severed. The deck store's
// references are the PUT and one hash lookup per task: N references read 1
// miss, N−1 hits.
func TestUnknownSystemRegistersOnce(t *testing.T) {
	d := gridDeck(t, 0.2)
	spec := job.Spec{Tol: 1e-7}
	local, _ := d.local(t, spec, 1)
	w := startWorker(t, "127.0.0.1:0", serve.Config{})
	for run := 1; run <= 2; run++ {
		got, out, err := d.remote(context.Background(), spec, []string{w.addr}, nil)
		if err != nil {
			t.Fatal(err)
		}
		refs := uint64(1 + run) // the PUT, then one task per run
		st := w.stats(t)
		if ds := st.DeckStore; ds.Misses != 1 || ds.Hits != refs-1 || st.DeckPuts != 1 || st.InlineDecks != 0 || out.Dist.Retried != 0 || !sameRows(got, local) {
			t.Fatalf("run %d: deck store %+v, %d PUTs, %d inline, %d retries", run, ds, st.DeckPuts, st.InlineDecks, out.Dist.Retried)
		}
	}
	w.kill()
	back := startWorker(t, w.addr, serve.Config{})
	got, out, err := d.remote(context.Background(), spec, []string{back.addr}, nil)
	if err != nil {
		t.Fatalf("run after the worker restarted: %v", err)
	}
	if st := back.stats(t); st.DeckStore.Misses != 1 || st.DeckStore.Hits != 1 || st.DeckPuts != 1 || out.Dist.Retried != 0 || !sameRows(got, local) {
		t.Fatalf("restarted worker: deck store %+v, %d PUTs, %d retries", st.DeckStore, st.DeckPuts, out.Dist.Retried)
	}
}

// TestRegisterSingleFlight: eight tasks of one new deck at once onto one
// fresh worker (a run cut for eight nodes, all of them that worker) are all
// answered 404, and the run sends the worker one PUT, which the other seven
// wait for: one parse, then eight hash lookups, and all land.
func TestRegisterSingleFlight(t *testing.T) {
	d := gridDeck(t, 0.5) // twelve groups
	spec := job.Spec{Tol: 1e-7}
	local, _ := d.local(t, spec, 8)
	w := startWorker(t, "127.0.0.1:0", serve.Config{Workers: 8})
	addrs := make([]string, 8)
	for i := range addrs {
		addrs[i] = w.addr
	}
	got, out, err := d.remote(context.Background(), spec, addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dist.Tasks != 8 || out.Dist.Retried != 0 || !sameRows(got, local) {
		t.Fatalf("%d tasks, %d retries, rows equal to in-process: %v", out.Dist.Tasks, out.Dist.Retried, sameRows(got, local))
	}
	if st := w.stats(t); st.DeckStore.Misses != 1 || st.DeckStore.Hits != 8 || st.DeckStore.Entries != 1 || st.DeckPuts != 1 {
		t.Fatalf("eight concurrent first tasks of one deck: deck store %+v, %d PUTs, want one PUT and one parse", st.DeckStore, st.DeckPuts)
	}
}

// TestWireGenerationMismatchIsLoud: a worker from a build that predates task
// specs refuses the unknown "inputs" field with a 400 naming it; the run
// fails on its first task with that answer, at once, and sends it nowhere
// else.
func TestWireGenerationMismatchIsLoud(t *testing.T) {
	d := gridDeck(t, 0.1)
	var posts atomic.Int64
	old := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		var spec map[string]json.RawMessage
		if err := json.NewDecoder(r.Body).Decode(&spec); err == nil && spec["inputs"] != nil {
			w.WriteHeader(http.StatusBadRequest)
			io.WriteString(w, `{"error":"decoding job spec: json: unknown field \"inputs\""}`+"\n")
			return
		}
		w.WriteHeader(http.StatusInternalServerError)
	})}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go old.Serve(l)
	defer old.Close()
	live := startWorker(t, "127.0.0.1:0", serve.Config{})

	began := time.Now()
	_, _, err = d.remote(context.Background(), job.Spec{}, []string{l.Addr().String()}, nil)
	if err == nil || !strings.Contains(err.Error(), "400 Bad Request") || !strings.Contains(err.Error(), `unknown field "inputs"`) {
		t.Fatalf("run against an older worker: %v", err)
	}
	var none *job.NoWorkerError
	if errors.As(err, &none) || posts.Load() != 1 || live.stats(t).Accepted != 0 {
		t.Fatalf("the refusal was retried: %d posts, %v", posts.Load(), err)
	}
	if took := time.Since(began); took > 5*time.Second {
		t.Fatalf("the mismatch took %v to surface", took)
	}
}

// TestWorkerHasNoOrderingOfItsOwn: a task spec that leaves the ordering at
// its default is solved on the fill the coordinator resolves it to (nd), bit
// for bit — a worker has no ordering default that could differ from the
// coordinator's DC solve.
func TestWorkerHasNoOrderingOfItsOwn(t *testing.T) {
	d := gridDeck(t, 0.5) // large enough that nd and the other orderings round differently
	groups := dist.Partition(d.sys, d.tstop)
	var inputs []int
	for _, g := range groups {
		inputs = append(inputs, g.InputIdx...)
	}
	solve := func(ordering string) []byte {
		w := startWorker(t, "127.0.0.1:0", serve.Config{}) // its own cache: each ordering factorizes afresh
		defer w.kill()
		body, err := json.Marshal(job.Spec{Netlist: d.text, Tol: 1e-7, Ordering: ordering, Inputs: inputs})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post("http://"+w.addr+"/v1/simulate", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		stream, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(stream)), "\n")
		if len(lines) < 4 || !strings.Contains(lines[len(lines)-1], `"state":"done"`) {
			t.Fatalf("ordering %q: the task streamed %d lines, ending %s", ordering, len(lines), lines[len(lines)-1])
		}
		return []byte(strings.Join(lines[1:len(lines)-1], "\n")) // the rows, without header and tail
	}
	if def, nd := solve(""), solve("nd"); string(def) != string(nd) {
		t.Fatal("a default-ordering task answered differently from the same task on nd")
	}
}

// killableProxy forwards TCP bytes to a target until Kill is called, then
// severs every connection — the network between a coordinator and a worker
// failing mid-task.
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
	t.Cleanup(p.Kill)
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

// TestRunStatsAreTheTasksFolded: a distributed run's Stats are its tasks'
// own (Report.TaskStats) folded by the one rule — counters summed in task
// order, FactorTime summed, DCTime task 0's (the others are zero-state),
// TransientTime the slowest task's — in process and over two loopback job
// servers alike.
func TestRunStatsAreTheTasksFolded(t *testing.T) {
	d := gridDeck(t, 0.2)
	spec := job.Spec{Tol: 1e-7}
	local, repL := d.local(t, spec, 2)
	w1, w2 := startWorker(t, "127.0.0.1:0", serve.Config{}), startWorker(t, "127.0.0.1:0", serve.Config{})
	_, out, err := d.remote(context.Background(), spec, []string{w1.addr, w2.addr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  transient.Stats
		rep  *dist.Report
	}{{"in process", local.Stats, repL}, {"over job servers", out.Stats, out.Dist}} {
		var want transient.Stats
		for _, s := range c.rep.TaskStats {
			want.Add(&s)
			want.FactorTime += s.FactorTime
			want.TransientTime = max(want.TransientTime, s.TransientTime)
		}
		want.DCTime = c.rep.TaskStats[0].DCTime
		if len(c.rep.TaskStats) != 2 || want.SolvePairs == 0 || !reflect.DeepEqual(c.got, want) {
			t.Errorf("%s: run stats %+v, tasks folded %+v", c.name, c.got, want)
		}
	}
}
