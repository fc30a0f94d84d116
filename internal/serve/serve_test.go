package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/dist"
	"github.com/matex-sim/matex/internal/memo"
	"github.com/matex-sim/matex/internal/netlist"
	"github.com/matex-sim/matex/internal/serve"
	"github.com/matex-sim/matex/internal/sweep"
	"github.com/matex-sim/matex/internal/transient"
)

// testDeck renders a small ibmpg1t-style deck to SPICE text — the same
// flow as `pgbench -case ibmpg1t -scale 0.25`.
func testDeck(t *testing.T) string { return testDeckCNode(t, 0.25, 0) }

// testDeckCNode is the ibmpg1t deck at the given scale with every node
// capacitor set to cnode farads (0: the stock 10 fF).
func testDeckCNode(t *testing.T, scale, cnode float64) string {
	t.Helper()
	return serve.IBMDeck(t, "ibmpg1t", scale, cnode)
}

// stampDeck parses and stamps the deck the way cmd/matex does, resolving
// the probes from its .print cards.
func stampDeck(t *testing.T, deckText string) (*netlist.Deck, *circuit.System, []int) {
	t.Helper()
	deck, err := netlist.Parse(strings.NewReader(deckText))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := circuit.Stamp(deck.Circuit, circuit.StampOptions{CollapseSupplies: true})
	if err != nil {
		t.Fatal(err)
	}
	var probes []int
	for _, name := range deck.Prints {
		idx, _, fixed, err := sys.NodeIndex(name)
		if err != nil {
			t.Fatal(err)
		}
		if fixed {
			continue
		}
		probes = append(probes, idx)
	}
	return deck, sys, probes
}

// oneShot runs the deck exactly the way cmd/matex does (parse, stamp,
// probes from .print cards, simulate) — the reference the streamed
// waveforms must match.
func oneShot(t *testing.T, deckText string, method transient.Method) *transient.Result {
	t.Helper()
	deck, sys, probes := stampDeck(t, deckText)
	res, err := transient.Simulate(sys, method, transient.Options{
		Tstop: deck.TranStop, Step: deck.TranStep, Probes: probes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// testServer starts a serve.Server behind a real TCP listener and returns
// its base URL plus a shutdown helper.
func testServer(t *testing.T, cfg serve.Config) (*serve.Server, string, func(ctx context.Context) error) {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	go httpSrv.Serve(l)
	shutdown := func(ctx context.Context) error {
		if err := httpSrv.Shutdown(ctx); err != nil {
			return err
		}
		return s.Shutdown(ctx)
	}
	return s, "http://" + l.Addr().String(), shutdown
}

// streamedJob is a parsed NDJSON stream.
type streamedJob struct {
	id      string
	probes  []string
	times   []float64
	rows    [][]float64
	state   serve.JobState
	tailErr string
}

// readStream consumes an NDJSON waveform stream.
func readStream(t *testing.T, body *bufio.Scanner) *streamedJob {
	t.Helper()
	out := &streamedJob{}
	first := true
	for body.Scan() {
		line := bytes.TrimSpace(body.Bytes())
		if len(line) == 0 {
			continue
		}
		if first {
			var hdr struct {
				ID     string   `json:"id"`
				Probes []string `json:"probes"`
			}
			if err := json.Unmarshal(line, &hdr); err != nil {
				t.Fatalf("stream header: %v in %q", err, line)
			}
			out.id, out.probes = hdr.ID, hdr.Probes
			first = false
			continue
		}
		var probe struct {
			Done  *bool     `json:"done"`
			State string    `json:"state"`
			Error string    `json:"error"`
			T     float64   `json:"t"`
			V     []float64 `json:"v"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("stream chunk: %v in %q", err, line)
		}
		if probe.Done != nil {
			out.state = serve.JobState(probe.State)
			out.tailErr = probe.Error
			return out
		}
		out.times = append(out.times, probe.T)
		out.rows = append(out.rows, probe.V)
	}
	t.Fatalf("stream ended without a done chunk (err=%v)", body.Err())
	return nil
}

func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestE2EConcurrentStreamingJobs is the acceptance run: 8 concurrent jobs
// submitted over a real listener stream waveforms that match the one-shot
// path to <= 1e-12, /stats shows shared-cache hits across jobs, and the
// server drains cleanly afterwards.
func TestE2EConcurrentStreamingJobs(t *testing.T) {
	deckText := testDeck(t)
	want := oneShot(t, deckText, transient.RMATEX)

	s, base, shutdown := testServer(t, serve.Config{Workers: 4, QueueDepth: 32})

	// The goroutines only move bytes (no t.Fatal off the test goroutine);
	// parsing and assertions happen on the main goroutine below.
	const jobs = 8
	bodies := make([][]byte, jobs)
	var wg sync.WaitGroup
	for k := 0; k < jobs; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			body, _ := json.Marshal(serve.JobSpec{Netlist: deckText})
			resp, err := http.Post(base+"/v1/simulate", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("job %d: %v", k, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("job %d: status %d", k, resp.StatusCode)
				return
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
				t.Errorf("job %d: content type %q", k, ct)
			}
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("job %d: reading stream: %v", k, err)
				return
			}
			bodies[k] = data
		}(k)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	results := make([]*streamedJob, jobs)
	for k := range bodies {
		sc := bufio.NewScanner(bytes.NewReader(bodies[k]))
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		results[k] = readStream(t, sc)
	}

	for k, got := range results {
		if got.state != serve.JobDone {
			t.Fatalf("job %d finished %q (err %q)", k, got.state, got.tailErr)
		}
		if len(got.times) != len(want.Times) {
			t.Fatalf("job %d streamed %d samples, one-shot has %d", k, len(got.times), len(want.Times))
		}
		for i := range got.times {
			if got.times[i] != want.Times[i] {
				t.Fatalf("job %d sample %d: t=%g, one-shot %g", k, i, got.times[i], want.Times[i])
			}
			for p := range got.rows[i] {
				if d := math.Abs(got.rows[i][p] - want.Probes[i][p]); d > 1e-12 {
					t.Fatalf("job %d sample %d probe %d deviates %g from one-shot (budget 1e-12)", k, i, p, d)
				}
			}
		}
	}

	// Shared-cache effectiveness across the 8 identical jobs: every job
	// needs the same G and (C + γG) factorizations, so all but the first
	// acquisitions are hits.
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats serve.StatsReply
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Totals.CacheHits == 0 {
		t.Errorf("no shared-cache hits across %d identical jobs: %+v", jobs, stats.Totals)
	}
	if stats.Completed != jobs {
		t.Errorf("stats report %d completed jobs, want %d", stats.Completed, jobs)
	}
	// And the deck itself: eight concurrent first sights are one parse + stamp
	// (the other seven waited for it), one resident entry charged its text.
	if want := (memo.Stats{Entries: 1, Bytes: int64(len(deckText)), Hits: jobs - 1, Misses: 1}); stats.DeckStore != want {
		t.Errorf("deck store %+v after %d jobs on one unseen deck, want %+v", stats.DeckStore, jobs, want)
	}

	// Clean drain: Shutdown returns nil and later submissions are refused.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if _, err := s.Submit(serve.JobSpec{Netlist: deckText}); !errors.Is(err, serve.ErrShuttingDown) {
		t.Fatalf("submit after shutdown: %v, want ErrShuttingDown", err)
	}
}

// TestJobQueueAndStatusEndpoints drives the queued (non-streaming-submit)
// flow: POST /v1/jobs, poll GET /v1/jobs/{id}, then replay the stream
// after completion — late subscribers see the full waveform.
func TestJobQueueAndStatusEndpoints(t *testing.T) {
	deckText := testDeck(t)
	s, base, shutdown := testServer(t, serve.Config{Workers: 2, QueueDepth: 8})
	defer shutdown(context.Background())

	// Occupy both workers with slow jobs, so the submit reply cannot race a
	// free worker to done: it must say queued.
	var slow []*serve.Job
	for i := 0; i < 2; i++ {
		j, err := s.Submit(serve.JobSpec{Netlist: deckText, Method: "tr", Step: 1e-14})
		if err != nil {
			t.Fatal(err)
		}
		slow = append(slow, j)
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, j := range slow {
		for j.State() == serve.JobQueued {
			if time.Now().After(deadline) {
				t.Fatal("slow job never started")
			}
			time.Sleep(time.Millisecond)
		}
	}

	resp := postJSON(t, base+"/v1/jobs", serve.JobSpec{Netlist: deckText, Method: "imatex"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ID == "" || st.State != serve.JobQueued {
		t.Fatalf("unexpected submit status %+v", st)
	}
	for _, j := range slow {
		j.Cancel()
	}

	deadline = time.Now().Add(60 * time.Second)
	for {
		r, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if st.State == serve.JobDone {
			break
		}
		if st.State == serve.JobFailed || st.State == serve.JobCanceled {
			t.Fatalf("job ended %q: %s", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Stats == nil || st.Stats.Steps == 0 {
		t.Fatalf("done job carries no stats: %+v", st)
	}

	// Late replay must deliver the whole waveform.
	r, err := http.Get(base + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	got := readStream(t, sc)
	if got.state != serve.JobDone || len(got.times) != st.Samples {
		t.Fatalf("replayed %d samples in state %q, status had %d", len(got.times), got.state, st.Samples)
	}

	// Unknown job: 404.
	r404, err := http.Get(base + "/v1/jobs/job-9999")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", r404.StatusCode)
	}
}

// TestSSEStreamFormat: ?sse=1 wraps every chunk as an SSE data event, with
// sample events carrying monotonic `id:` lines (the reconnect cursor).
func TestSSEStreamFormat(t *testing.T) {
	deckText := testDeck(t)
	_, base, shutdown := testServer(t, serve.Config{Workers: 1, QueueDepth: 4})
	defer shutdown(context.Background())

	body, _ := json.Marshal(serve.JobSpec{Netlist: deckText})
	resp, err := http.Post(base+"/v1/simulate?sse=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q, want text/event-stream", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	events, lastID := 0, 0
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.Atoi(strings.TrimPrefix(line, "id: "))
			if err != nil || id != lastID+1 {
				t.Fatalf("event id %q after id %d", line, lastID)
			}
			lastID = id
		case strings.HasPrefix(line, "data: "):
			events++
		default:
			t.Fatalf("non-SSE line %q", line)
		}
	}
	if events < 3 { // header + >=1 sample + tail
		t.Fatalf("only %d SSE events", events)
	}
	if lastID == 0 {
		t.Fatal("no sample event carried an id: line")
	}
}

// TestCancelRunningJob: DELETE on a long-running job flips it to canceled
// and unblocks its stream with a canceled tail.
func TestCancelRunningJob(t *testing.T) {
	deckText := testDeck(t)
	_, base, shutdown := testServer(t, serve.Config{Workers: 1, QueueDepth: 4})
	defer shutdown(context.Background())

	// A deliberately slow job: fixed-step TR with a tiny step.
	resp := postJSON(t, base+"/v1/jobs", serve.JobSpec{Netlist: deckText, Method: "tr", Step: 1e-14})
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Wait until it is actually running, then cancel.
	deadline := time.Now().Add(30 * time.Second)
	for st.State == serve.JobQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
		r, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
	}
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+st.ID, nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()

	for {
		r, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled job stuck in %q", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != serve.JobCanceled {
		t.Fatalf("job ended %q, want canceled", st.State)
	}
}

// TestCancelRunningLaneJobs: a distributed job and a sweep canceled while
// their lanes run report canceled — the lanes in flight unwind on the
// context, and the lanes not yet started never start.
func TestCancelRunningLaneJobs(t *testing.T) {
	deckText := testDeck(t)
	s, _, shutdown := testServer(t, serve.Config{Workers: 2, QueueDepth: 4})
	defer shutdown(context.Background())

	slow := serve.JobSpec{Netlist: deckText, Method: "tr", Step: 1e-14}
	distributed, swept := slow, slow
	distributed.Distributed = true
	swept.Variants = []sweep.Variant{{Name: "a"}, {Name: "b", Scale: 1.5}, {Name: "c", SourceScales: map[string]float64{"Iload1": 2}}}
	for name, spec := range map[string]serve.JobSpec{"distributed": distributed, "sweep": swept} {
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for job.State() == serve.JobQueued {
			if time.Now().After(deadline) {
				t.Fatalf("%s job never started", name)
			}
			time.Sleep(time.Millisecond)
		}
		job.Cancel()
		for !job.State().Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("canceled %s job stuck in %q", name, job.State())
			}
			time.Sleep(5 * time.Millisecond)
		}
		if st := job.Status(); st.State != serve.JobCanceled {
			t.Fatalf("%s job ended %q (%s), want canceled", name, st.State, st.Error)
		}
	}
}

// TestDistributedJobStreamsSuperposition: a distributed job runs through
// the dist scheduler and streams the superposed waveform, matching the
// non-distributed run on the shared GTS grid.
func TestDistributedJobStreamsSuperposition(t *testing.T) {
	deckText := testDeck(t)
	_, base, shutdown := testServer(t, serve.Config{Workers: 2, QueueDepth: 4})
	defer shutdown(context.Background())

	run := func(distributed bool) *streamedJob {
		body, _ := json.Marshal(serve.JobSpec{Netlist: deckText, Distributed: distributed})
		resp, err := http.Post(base+"/v1/simulate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		return readStream(t, sc)
	}
	plain := run(false)
	distd := run(true)
	if distd.state != serve.JobDone {
		t.Fatalf("distributed job ended %q: %s", distd.state, distd.tailErr)
	}
	if len(distd.times) == 0 {
		t.Fatal("distributed job streamed nothing")
	}
	// The dist grid is the GTS; compare on the shared time points.
	j := 0
	compared := 0
	for i, tp := range distd.times {
		for j < len(plain.times) && plain.times[j] < tp-1e-18 {
			j++
		}
		if j >= len(plain.times) || plain.times[j] > tp+1e-18 {
			continue
		}
		for p := range distd.rows[i] {
			if d := math.Abs(distd.rows[i][p] - plain.rows[j][p]); d > 1e-6 {
				t.Fatalf("superposition deviates %g at t=%g probe %d", d, tp, p)
			}
		}
		compared++
	}
	if compared == 0 {
		t.Fatal("no shared time points between distributed and plain runs")
	}
}

// workerAddr is a test server's host:port, as DistAddrs and -workers name it.
func workerAddr(base string) string { return strings.TrimPrefix(base, "http://") }

// TestDistributedJobsOverRPCWorkers: with DistAddrs configured, a
// distributed job posts its task to the worker job server as a job of its
// own that names its deck by hash; the first job's task is answered 404 and
// teaches the worker the deck with one PUT (one parse), every task finds it
// in the worker's deck store by hash — N references, the PUT and the tasks,
// read 1 miss and N−1 hits — and each job's status carries the plan cut for
// the one worker.
func TestDistributedJobsOverRPCWorkers(t *testing.T) {
	deckText := testDeck(t)
	_, worker, stopWorker := testServer(t, serve.Config{Workers: 2, QueueDepth: 8})
	defer stopWorker(context.Background())
	_, base, shutdown := testServer(t, serve.Config{
		Workers: 2, QueueDepth: 8, DistAddrs: []string{workerAddr(worker)},
	})
	defer shutdown(context.Background())

	for round := 0; round < 2; round++ {
		got := streamNDJSON(t, base+"/v1/simulate", serve.JobSpec{Netlist: deckText, Distributed: true})
		if got.state != serve.JobDone {
			t.Fatalf("round %d: distributed job ended %q: %s", round, got.state, got.tailErr)
		}
		if len(got.times) == 0 {
			t.Fatalf("round %d: no samples streamed", round)
		}
		var st serve.Status
		resp, err := http.Get(base + "/v1/jobs/" + got.id)
		if err != nil {
			t.Fatal(err)
		}
		if err := jsonDecode(resp, &st); err != nil {
			t.Fatal(err)
		}
		if st.Groups < 2 || st.Tasks != 1 || st.Retried != 0 {
			t.Fatalf("round %d: status reports %d groups in %d tasks, %d retried; want several groups in 1 task", round, st.Groups, st.Tasks, st.Retried)
		}
		ws := getStats(t, worker)
		refs := uint64(round + 2) // the PUT and one task per round
		if ws.Completed != uint64(round+1) || ws.DeckStore.Misses != 1 || ws.DeckStore.Hits != refs-1 || ws.DeckPuts != 1 || ws.InlineDecks != 0 {
			t.Fatalf("round %d: the worker completed %d tasks on %+v with %d PUTs and %d inline decks, want %d on one PUT", round, ws.Completed, ws.DeckStore, ws.DeckPuts, ws.InlineDecks, round+1)
		}
	}
}

// TestDistributedJobFailsAfterItsFirstRow: a distributed job's t = 0 row
// leaves once the scheduler's DC solve is done, whatever its one task is
// doing; when the task then fails on its worker (γ = 1e-30 stops R-MATEX
// a few steps in), the job ends failed with the solver's error, that row
// streamed and its sequence numbers gapless — and the worker's answer is
// not retried.
func TestDistributedJobFailsAfterItsFirstRow(t *testing.T) {
	_, worker, stopWorker := testServer(t, serve.Config{Workers: 1, QueueDepth: 2})
	defer stopWorker(context.Background())
	_, base, shutdown := testServer(t, serve.Config{Workers: 1, QueueDepth: 2, DistAddrs: []string{workerAddr(worker)}})
	defer shutdown(context.Background())
	resp := postJSON(t, base+"/v1/simulate", serve.JobSpec{Case: "ibmpg1t", Gamma: 1e-30, Distributed: true})
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var id string
	var seqs []int
	var times []float64
	for sc.Scan() {
		var chunk struct {
			ID    string  `json:"id"`
			Seq   int     `json:"seq"`
			T     float64 `json:"t"`
			Done  bool    `json:"done"`
			State string  `json:"state"`
			Error string  `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &chunk); err != nil {
			t.Fatalf("stream chunk: %v in %q", err, sc.Bytes())
		}
		switch {
		case chunk.ID != "":
			id = chunk.ID
		case chunk.Done:
			if chunk.State != string(serve.JobFailed) || !strings.Contains(chunk.Error, "transient: R-MATEX") {
				t.Fatalf("job ended %q: %s", chunk.State, chunk.Error)
			}
			if len(seqs) == 0 || times[0] != 0 {
				t.Fatalf("failed job streamed %d rows from t=%v", len(seqs), times)
			}
			for i, s := range seqs {
				if s != i+1 {
					t.Fatalf("seq %d at position %d: not gapless", s, i)
				}
			}
			var st serve.Status
			sresp, err := http.Get(base + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			if err := jsonDecode(sresp, &st); err != nil {
				t.Fatal(err)
			}
			if ws := getStats(t, worker); ws.Failed != 1 || ws.Accepted != 1 {
				t.Fatalf("the worker accepted %d tasks and failed %d: a solver error was sent again", ws.Accepted, ws.Failed)
			}
			return
		case chunk.Seq > 0:
			seqs, times = append(seqs, chunk.Seq), append(times, chunk.T)
		}
	}
	t.Fatalf("stream ended without a done chunk (err=%v)", sc.Err())
}

// TestOnePoolManyDecks: the server keeps no pool per deck, nor a pool at
// all: distributed jobs on ten distinct decks each post their task to the
// one configured worker, which learns each deck from one PUT (one parse
// each) and finds it by hash for its task, and each streams the bits of
// `matex -distributed` on a one-node plan.
func TestOnePoolManyDecks(t *testing.T) {
	_, worker, stopWorker := testServer(t, serve.Config{Workers: 2, QueueDepth: 16})
	defer stopWorker(context.Background())
	_, base, shutdown := testServer(t, serve.Config{
		Workers: 2, QueueDepth: 16, DistAddrs: []string{workerAddr(worker)},
	})
	defer shutdown(context.Background())

	const decks = 10
	for i := 0; i < decks; i++ {
		deckText := testDeckCNode(t, 0.25, float64(i+1)*1e-14)
		deck, sys, probes := stampDeck(t, deckText)
		want, _, err := dist.Run(dist.NewSystem(sys), transient.RMATEX, dist.Config{
			Base:    transient.Options{Tstop: deck.TranStop, Step: deck.TranStep, Probes: probes},
			Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := streamNDJSON(t, base+"/v1/simulate", serve.JobSpec{Netlist: deckText, Distributed: true})
		if got.state != serve.JobDone {
			t.Fatalf("deck %d: distributed job ended %q: %s", i, got.state, got.tailErr)
		}
		if !reflect.DeepEqual(got.times, want.Times) || !reflect.DeepEqual(got.rows, want.Probes) {
			t.Fatalf("deck %d: streamed waveform differs from the in-process distributed run", i)
		}
	}
	if ws := getStats(t, worker); ws.DeckStore.Misses != decks || ws.DeckStore.Hits != decks || ws.DeckPuts != decks {
		t.Fatalf("the worker's deck store %+v with %d PUTs after %d tasks on %d decks, want one PUT and one parse per deck", ws.DeckStore, ws.DeckPuts, decks, decks)
	}
}

// TestCancelReachesTheWorkers: canceling a distributed job cancels its
// task's job on the worker, which then holds no slot for it — a one-slot
// worker starts its next job at once.
func TestCancelReachesTheWorkers(t *testing.T) {
	deckText := testDeck(t)
	_, worker, stopWorker := testServer(t, serve.Config{Workers: 1, QueueDepth: 4})
	defer stopWorker(context.Background())
	s, _, shutdown := testServer(t, serve.Config{Workers: 1, QueueDepth: 4, DistAddrs: []string{workerAddr(worker)}})
	defer shutdown(context.Background())

	// A task that would integrate for minutes: fixed-step TR, tiny step.
	job, err := s.Submit(serve.JobSpec{Netlist: deckText, Method: "tr", Step: 1e-14, Distributed: true})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for getStats(t, worker).InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the task never started on the worker")
		}
		time.Sleep(5 * time.Millisecond)
	}
	job.Cancel()
	for {
		ws := getStats(t, worker)
		if ws.Canceled == 1 && ws.InFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the worker still runs the canceled job's task: %d canceled, %d in flight", ws.Canceled, ws.InFlight)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := job.Status(); st.State != serve.JobCanceled {
		t.Fatalf("the distributed job ended %q (%s), want canceled", st.State, st.Error)
	}

	next := streamNDJSON(t, worker+"/v1/simulate", serve.JobSpec{Netlist: deckText})
	var st serve.Status
	resp, err := http.Get(worker + "/v1/jobs/" + next.id)
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonDecode(resp, &st); err != nil {
		t.Fatal(err)
	}
	if wait := time.Duration(st.Started - st.Queued); next.state != serve.JobDone || wait > 2*time.Second {
		t.Fatalf("the worker's next job ended %q after queueing %v", next.state, wait)
	}
}

// TestSubmitValidation: bad specs are rejected with 400 at submit time, and
// a method that no longer exists is refused by name, never run as another.
func TestSubmitValidation(t *testing.T) {
	_, base, shutdown := testServer(t, serve.Config{Workers: 1, QueueDepth: 2})
	defer shutdown(context.Background())
	for name, spec := range map[string]serve.JobSpec{
		"no deck":        {},
		"both decks":     {Netlist: "* x\n.end\n", Case: "ibmpg1t"},
		"bad method":     {Case: "ibmpg1t", Method: "simplex"},
		"deleted method": {Case: "ibmpg1t", Method: "fe"},
		"bad case":       {Case: "ibmpg9t"},
		"bad netlist":    {Netlist: "Rbroken 1\n"},
		"missing window": {Netlist: "* t\nR1 a 0 1\nC1 a 0 1p\nI1 a 0 1m\n.end\n"},
		"fixed no step":  {Case: "ibmpg1t", Method: "tr"},
		"bad krylov":     {Case: "ibmpg1t", Krylov: "chebyshev"},
		"bad ordering":   {Case: "ibmpg1t", Ordering: "amd2000"},
		// Refused before anything is generated: 8.1e9 grid nodes, and a
		// 200 M-entry probe list on a 900-node grid.
		"case too big":    {Case: "ibmpg6t", Scale: 1000},
		"too many probes": {Case: "ibmpg1t", NumProbes: 200000000},
		// Hostile task specs: inputs out of range, repeated, on a supply
		// rail, or on a distributed job.
		"input out of range": {Case: "ibmpg1t", Inputs: []int{30, 1 << 40}},
		"input repeated":     {Case: "ibmpg1t", Inputs: []int{30, 30}},
		"supply input":       {Case: "ibmpg1t", Inputs: []int{0}},
		"distributed task":   {Case: "ibmpg1t", Inputs: []int{30}, Distributed: true},
	} {
		resp := postJSON(t, base+"/v1/jobs", spec)
		var reply struct{ Error string }
		err := json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if spec.Method != "" && (err != nil || !strings.Contains(reply.Error, strconv.Quote(spec.Method))) {
			t.Errorf("%s: error %q (%v) does not name the method %q", name, reply.Error, err, spec.Method)
		}
	}
	// The case bound still admits the paper's 1.6 M-node grids.
	if err := (&serve.JobSpec{Case: "ibmpg6t", Scale: 14.06}).Check(serve.MaxBodyBytes); err != nil {
		t.Errorf("a 1.6 M-node case: %v", err)
	}
	// Unknown fields are rejected too, by name: typo protection, and the
	// answer a client still sending the deleted "solve_workers" knob gets.
	for path, field := range map[string]string{"/v1/jobs": "tsotp", "/v1/simulate": "solve_workers"} {
		resp, err := http.Post(base+path, "application/json",
			strings.NewReader(`{"case":"ibmpg1t","`+field+`":4}`))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), field) {
			t.Errorf("unknown field %q: status %d %q, want 400 naming the field", field, resp.StatusCode, msg)
		}
	}
	// Only the spec's own members are names: a variant's members, and braces,
	// commas and quotes inside a string, are not; a name matches in any case.
	for body, unknown := range map[string]string{
		`{"CASE":"ibmpg1t","variants":[{"name":"a","scale":1.5}],"method":"tr \",\"x\":{"}`: "",
		`{"case":"ibmpg1t","variants":[{"name":"a"}],"nmae":1}`:                             "nmae",
		`{"case":"ibmpg1t","variants":[{"name":"a"}],"x\"y":1}`:                             `x"y`,
	} {
		var reply struct{ Error string }
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if err := jsonDecode(resp, &reply); err != nil {
			t.Fatal(err)
		}
		named := strings.Contains(reply.Error, "unknown field")
		if unknown == "" && named || unknown != "" && (resp.StatusCode != http.StatusBadRequest || !strings.Contains(reply.Error, strconv.Quote(unknown))) {
			t.Errorf("%s: status %d %q, want the unknown field %q named", body, resp.StatusCode, reply.Error, unknown)
		}
	}
}

// TestHealthz: liveness endpoint.
func TestHealthz(t *testing.T) {
	_, base, shutdown := testServer(t, serve.Config{Workers: 1, QueueDepth: 2})
	defer shutdown(context.Background())
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		OK bool `json:"ok"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !h.OK {
		t.Fatalf("healthz: status %d ok=%v", resp.StatusCode, h.OK)
	}
}

// TestPgbenchCaseJob: a named-case job (no inline netlist) runs and
// matches the same case built in-process.
func TestPgbenchCaseJob(t *testing.T) {
	_, base, shutdown := testServer(t, serve.Config{Workers: 1, QueueDepth: 2})
	defer shutdown(context.Background())
	body, _ := json.Marshal(serve.JobSpec{Case: "ibmpg1t", Scale: 0.25, NumProbes: 3})
	resp, err := http.Post(base+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	got := readStream(t, sc)
	if got.state != serve.JobDone {
		t.Fatalf("case job ended %q: %s", got.state, got.tailErr)
	}
	if len(got.probes) != 3 {
		t.Fatalf("expected 3 probes, got %v", got.probes)
	}
	if len(got.times) == 0 {
		t.Fatal("case job streamed nothing")
	}
}

// TestJobRetentionCap: finished jobs past MaxRetainedJobs are evicted
// (oldest first) so a long-running service does not hoard waveforms;
// recent jobs stay queryable.
func TestJobRetentionCap(t *testing.T) {
	deckText := testDeck(t)
	s, base, shutdown := testServer(t, serve.Config{Workers: 1, QueueDepth: 8, MaxRetainedJobs: 2})
	defer shutdown(context.Background())

	var last serve.Status
	for i := 0; i < 5; i++ {
		resp := postJSON(t, base+"/v1/jobs", serve.JobSpec{Netlist: deckText})
		if err := json.NewDecoder(resp.Body).Decode(&last); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// Wait for the queue to drain.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if j, ok := s.Job(last.ID); ok && j.State().Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("last job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	jobs := s.Jobs()
	if len(jobs) > 2 {
		t.Fatalf("retained %d finished jobs, cap is 2", len(jobs))
	}
	// The newest job survives; the first was evicted.
	if _, ok := s.Job(last.ID); !ok {
		t.Fatal("newest job was evicted")
	}
	if _, ok := s.Job("job-1"); ok {
		t.Fatal("oldest job survived past the retention cap")
	}
}

// TestCanceledWhileQueuedIsCounted: a job canceled before any worker runs
// it still lands in the jobs_canceled counter, keeping the /stats
// invariant accepted = completed + failed + canceled (+ in flight).
func TestCanceledWhileQueuedIsCounted(t *testing.T) {
	deckText := testDeck(t)
	s, base, shutdown := testServer(t, serve.Config{Workers: 1, QueueDepth: 8})
	defer shutdown(context.Background())

	// Occupy the single worker with a slow job.
	slow, err := s.Submit(serve.JobSpec{Netlist: deckText, Method: "tr", Step: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for slow.State() == serve.JobQueued {
		if time.Now().After(deadline) {
			t.Fatal("slow job never started")
		}
		time.Sleep(time.Millisecond)
	}
	// Queue a second job and cancel it before the worker can pick it up.
	queued, err := s.Submit(serve.JobSpec{Netlist: deckText})
	if err != nil {
		t.Fatal(err)
	}
	queued.Cancel()
	if got := queued.State(); got != serve.JobCanceled {
		t.Fatalf("queued job state after cancel: %q", got)
	}
	slow.Cancel() // release the worker; it will pop and skip the queued job

	for {
		resp, err := http.Get(base + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var stats serve.StatsReply
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if stats.Canceled >= 2 {
			if stats.Accepted != stats.Completed+stats.Failed+stats.Canceled {
				t.Fatalf("stats invariant broken: %+v", stats)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled counter never reached 2: %+v", stats)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStatsWhileJobsFinish: /stats is read while jobs finish and fold their
// Krylov histograms into the totals. Each reply owns its histogram, since it
// is encoded after the server's lock is released (run under -race), and the
// totals come out as the sum of the jobs' own counts.
func TestStatsWhileJobsFinish(t *testing.T) {
	deckText := testDeck(t)
	s, base, shutdown := testServer(t, serve.Config{Workers: 2, QueueDepth: 16})
	defer shutdown(context.Background())

	const jobs = 6
	submitted := make([]*serve.Job, jobs)
	for k := range submitted {
		j, err := s.Submit(serve.JobSpec{Netlist: deckText})
		if err != nil {
			t.Fatal(err)
		}
		submitted[k] = j
	}
	deadline := time.Now().Add(60 * time.Second)
	st := getStats(t, base)
	for ; st.Completed < jobs; st = getStats(t, base) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d jobs completed: %+v", st.Completed, jobs, st)
		}
		time.Sleep(time.Millisecond)
	}
	var want transient.Stats
	for k, j := range submitted {
		js := j.Status()
		if js.State != serve.JobDone || js.Stats == nil {
			t.Fatalf("job %d ended %q with stats %v", k, js.State, js.Stats)
		}
		want.Add(js.Stats)
	}
	if st.Totals.Jobs != jobs || st.Totals.KrylovSpots != want.Spots() ||
		!reflect.DeepEqual(st.Totals.Dims, want.Dims) || st.Totals.SolvePairs != want.SolvePairs {
		t.Fatalf("totals %+v after %d jobs, want their sum %+v", st.Totals, jobs, want)
	}
}

// TestSignalContext: SIGTERM cancels the shared shutdown context (the
// trigger both matexsrv and matexd drain on).
func TestSignalContext(t *testing.T) {
	ctx, stop := serve.SignalContext(context.Background())
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM did not cancel the context")
	}
}

// TestShutdownCancelsStuckJobs: an expired shutdown context cancels the
// running jobs instead of waiting forever.
func TestShutdownCancelsStuckJobs(t *testing.T) {
	deckText := testDeck(t)
	s, base, _ := testServer(t, serve.Config{Workers: 1, QueueDepth: 2})
	resp := postJSON(t, base+"/v1/jobs", serve.JobSpec{Netlist: deckText, Method: "tr", Step: 1e-14})
	var st serve.Status
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown on stuck job: %v, want DeadlineExceeded", err)
	}
	job, ok := s.Job(st.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	if got := job.Status().State; got != serve.JobCanceled {
		t.Fatalf("job state after forced shutdown: %q, want canceled", got)
	}
}

// flushCounter is a ResponseWriter that counts its flushes.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

// A finished job's stream is written in three flushes, on NDJSON and SSE
// alike: the header, every sample at once, the tail — not one per sample.
func TestFinishedJobStreamsInThreeFlushes(t *testing.T) {
	srv, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	job, err := srv.Submit(serve.JobSpec{Netlist: testDeck(t), Method: "tr", Step: 1e-12, Tstop: 99e-12})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); !job.State().Terminal(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
	}
	if st := job.Status(); st.State != serve.JobDone || st.Samples != 100 {
		t.Fatalf("job ended %s with %d samples, want done with 100 (%s)", st.State, st.Samples, st.Error)
	}
	for _, query := range []string{"", "?sse=1"} {
		w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+job.ID+"/stream"+query, nil))
		if n := strings.Count(w.Body.String(), `"seq":`); n != 100 {
			t.Fatalf("stream%s carried %d samples, want 100", query, n)
		}
		if !strings.Contains(w.Body.String(), `"done":true`) {
			t.Fatalf("stream%s has no tail", query)
		}
		if w.flushes != 3 {
			t.Errorf("stream%s flushed %d times, want 3: header, samples, tail", query, w.flushes)
		}
	}
}
