package dist_test

// What a remote D-MATEX run puts on the wire: tasks that name their deck by
// hash, one PUT per worker that lacks it, rows that stream into the fold —
// and, when a task is posted twice, rows delivered once.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/matex-sim/matex/internal/job"
	"github.com/matex-sim/matex/internal/serve"
)

// serveWrapped serves h on a fresh loopback port until the test ends.
func serveWrapped(t *testing.T, h http.Handler) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(l)
	t.Cleanup(func() { hs.Close() })
	return l.Addr().String()
}

// wireLog counts what one worker was sent.
type wireLog struct {
	mu    sync.Mutex
	puts  int
	posts []int // body bytes of every POST /v1/simulate
}

// counted wraps a worker's handler so that log sees every request to it.
func (l *wireLog) counted(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		l.mu.Lock()
		switch {
		case r.Method == http.MethodPut:
			l.puts++
		case r.URL.Path == "/v1/simulate":
			l.posts = append(l.posts, len(body))
		}
		l.mu.Unlock()
		h.ServeHTTP(w, r)
	})
}

// TestWarmTasksNameTheirDeckByHash is the counted wire test: over two
// loopback job servers, each worker is sent the deck text once (one PUT),
// every warm task's request is a spec of under 1 KiB that names the deck by
// hash, the coordinator factorizes nothing on a warm run (G for the DC point
// is task 0's worker's, from its cache), and the run's summed substitution
// pairs are the in-process run's, the DC pair included.
func TestWarmTasksNameTheirDeckByHash(t *testing.T) {
	d := gridDeck(t, 0.2)
	spec := job.Spec{Tol: 1e-7}
	local, _ := d.local(t, spec, 2)
	logs := []*wireLog{{}, {}}
	addrs := make([]string, len(logs))
	for i, l := range logs {
		w := startWorker(t, "127.0.0.1:0", serve.Config{})
		addrs[i] = serveWrapped(t, l.counted(w.srv.Handler()))
	}
	const runs = 4 // one cold, three warm
	for run := 0; run < runs; run++ {
		got, out, err := d.remote(context.Background(), spec, addrs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(got, local) {
			t.Fatalf("run %d: rows are not the in-process rows", run)
		}
		own := out.Stats.Factorizations
		for _, st := range out.Dist.TaskStats {
			own -= st.Factorizations
		}
		if own != 0 {
			t.Errorf("run %d: the coordinator factorized %d times", run, own)
		}
		if out.Stats.SolvePairs != local.Stats.SolvePairs {
			t.Errorf("run %d: %d substitution pairs, in-process %d", run, out.Stats.SolvePairs, local.Stats.SolvePairs)
		}
		if run > 0 && out.Stats.Factorizations != 0 {
			t.Errorf("warm run %d: %d factorizations", run, out.Stats.Factorizations)
		}
	}
	for i, l := range logs {
		if l.puts != 1 {
			t.Errorf("worker %d was sent the deck %d times", i, l.puts)
		}
		// The cold run's first post is answered 404 and posted again after
		// the PUT; every later post is a warm task.
		if len(l.posts) != runs+1 {
			t.Fatalf("worker %d: %d posts for %d runs", i, len(l.posts), runs)
		}
		for k, n := range l.posts[2:] {
			if n > 1<<10 {
				t.Errorf("worker %d: warm task %d posted %d bytes", i, k, n)
			}
		}
		t.Logf("worker %d: PUT %d, warm task bodies %v B (deck text %d B)", i, l.puts, l.posts[2:], len(d.text))
	}
}

// streamCut wraps a worker's handler so that the first task stream through
// it is cut, as by a crash, after its first rows sample rows. The server
// flushes a stream once per batch of samples, and a busy job hands over
// many at once: the rows before the cut are flushed first, so the client
// has them all when the connection drops, whatever the batching.
func streamCut(h http.Handler, rows int) http.Handler {
	var cut atomic.Bool
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/simulate" || cut.Load() {
			h.ServeHTTP(w, r)
			return
		}
		h.ServeHTTP(&cutWriter{ResponseWriter: w, rows: rows, cut: &cut}, r)
	})
}

type cutWriter struct {
	http.ResponseWriter
	rows int
	cut  *atomic.Bool
}

func (c *cutWriter) Write(b []byte) (int, error) {
	if bytes.Contains(b, []byte(`"seq":`)) {
		if c.rows == 0 && c.cut.CompareAndSwap(false, true) {
			c.Flush()
			panic(http.ErrAbortHandler) // the connection drops mid-stream
		}
		c.rows--
	}
	return c.ResponseWriter.Write(b)
}

func (c *cutWriter) Flush() { c.ResponseWriter.(http.Flusher).Flush() }

// rowEdit wraps a worker's handler so that sample row seq of every task
// stream through it has its first value changed: a worker that disagrees.
func rowEdit(h http.Handler, seq int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(&editWriter{ResponseWriter: w, seq: seq}, r)
	})
}

type editWriter struct {
	http.ResponseWriter
	seq int
}

func (e *editWriter) Write(b []byte) (int, error) {
	var c map[string]any
	if json.Unmarshal(b, &c) == nil && c["seq"] == float64(e.seq) {
		v := c["v"].([]any)
		v[0] = v[0].(float64) + 1e-3
		out, err := json.Marshal(c)
		if err != nil {
			return 0, err
		}
		if _, err := e.ResponseWriter.Write(append(out, '\n')); err != nil {
			return 0, err
		}
		return len(b), nil
	}
	return e.ResponseWriter.Write(b)
}

func (e *editWriter) Flush() { e.ResponseWriter.(http.Flusher).Flush() }

// TestRetriedTaskDeliversEachRowOnce: a worker whose stream is cut after
// three rows has its task posted again to the other worker, which streams
// it from the start; the three rows already in the fold are compared with
// the new ones and not delivered again (a second delivery would be an
// off-grid sample, which fails the fold), so the run lands the in-process
// rows with one retry.
func TestRetriedTaskDeliversEachRowOnce(t *testing.T) {
	d := gridDeck(t, 0.2)
	spec := job.Spec{Tol: 1e-7}
	local, _ := d.local(t, spec, 2)
	cut := startWorker(t, "127.0.0.1:0", serve.Config{})
	other := startWorker(t, "127.0.0.1:0", serve.Config{})
	got, out, err := d.remote(context.Background(), spec, []string{serveWrapped(t, streamCut(cut.srv.Handler(), 3)), other.addr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dist.Retried != 1 {
		t.Fatalf("%d retries, want the one cut task", out.Dist.Retried)
	}
	if !sameRows(got, local) {
		t.Fatal("the rows after a cut stream are not the in-process rows")
	}
}

// TestRetryMismatchIsTyped: when the worker a cut task is posted to again
// streams a row other than the one already delivered, the run fails with a
// RetryMismatchError naming the row, rather than mend one answer with the
// other.
func TestRetryMismatchIsTyped(t *testing.T) {
	d := gridDeck(t, 0.2)
	spec := job.Spec{Tol: 1e-7}
	cut := startWorker(t, "127.0.0.1:0", serve.Config{})
	other := startWorker(t, "127.0.0.1:0", serve.Config{})
	addrs := []string{serveWrapped(t, streamCut(cut.srv.Handler(), 3)), serveWrapped(t, rowEdit(other.srv.Handler(), 2))}
	_, _, err := d.remote(context.Background(), spec, addrs, nil)
	var mismatch *job.RetryMismatchError
	if !errors.As(err, &mismatch) || mismatch.Row != 1 || mismatch.Worker != addrs[1] {
		t.Fatalf("run over disagreeing workers: %v, want a RetryMismatchError at row 1 on %s", err, addrs[1])
	}
}

// TestDeckLostAfterPutMovesOn: a worker that answers 404 again right after
// the deck's PUT (it evicted the deck, or restarted) is left for the next
// worker after one PUT and two posts, with no loop, and the run lands.
func TestDeckLostAfterPutMovesOn(t *testing.T) {
	d := gridDeck(t, 0.2)
	spec := job.Spec{Tol: 1e-7}
	local, _ := d.local(t, spec, 2)
	var lost wireLog
	forgets := lost.counted(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			w.WriteHeader(http.StatusCreated)
			io.WriteString(w, "{}\n")
			return
		}
		w.WriteHeader(http.StatusNotFound)
		io.WriteString(w, `{"error":"serve: unknown deck"}`+"\n")
	}))
	live := startWorker(t, "127.0.0.1:0", serve.Config{})
	got, out, err := d.remote(context.Background(), spec, []string{serveWrapped(t, forgets), live.addr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lost.puts != 1 || len(lost.posts) != 2 || out.Dist.Retried != 1 || !sameRows(got, local) {
		t.Fatalf("forgetful worker: %d PUTs, %d posts; run retried %d, rows equal to in-process: %v", lost.puts, len(lost.posts), out.Dist.Retried, sameRows(got, local))
	}
}

// TestRefusedDeckPutSurfaces: a worker that does not hold the deck and then
// refuses its PUT (a full disk: 500) fails the run with the refusal, after
// one PUT and one post — the task is not posted again as if the deck had
// arrived.
func TestRefusedDeckPutSurfaces(t *testing.T) {
	d := gridDeck(t, 0.2)
	var refusing wireLog
	h := refusing.counted(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			w.WriteHeader(http.StatusInternalServerError)
			io.WriteString(w, `{"error":"serve: journal append failed: no space left on device"}`+"\n")
			return
		}
		w.WriteHeader(http.StatusNotFound)
		io.WriteString(w, `{"error":"serve: unknown deck"}`+"\n")
	}))
	_, _, err := d.remote(context.Background(), job.Spec{Tol: 1e-7}, []string{serveWrapped(t, h)}, nil)
	if err == nil || !strings.Contains(err.Error(), "no space left on device") {
		t.Fatalf("run over a worker refusing the deck: %v, want the PUT's refusal", err)
	}
	if refusing.puts != 1 || len(refusing.posts) != 1 {
		t.Fatalf("refusing worker was sent %d PUTs and %d posts, want 1 and 1", refusing.puts, len(refusing.posts))
	}
}

// TestStreamWithoutHeaderMovesOn: a worker whose 200 answer does not open
// with a job stream's header is not running the task: the task is posted
// to the next worker, and the run lands the in-process rows with one retry.
func TestStreamWithoutHeaderMovesOn(t *testing.T) {
	d := gridDeck(t, 0.2)
	spec := job.Spec{Tol: 1e-7}
	local, _ := d.local(t, spec, 2)
	bad := startWorker(t, "127.0.0.1:0", serve.Config{})
	other := startWorker(t, "127.0.0.1:0", serve.Config{})
	headless := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/simulate" {
			bad.srv.Handler().ServeHTTP(w, r)
			return
		}
		bad.srv.Handler().ServeHTTP(&headerSwap{ResponseWriter: w}, r)
	})
	got, out, err := d.remote(context.Background(), spec, []string{serveWrapped(t, headless), other.addr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dist.Retried != 1 || !sameRows(got, local) {
		t.Fatalf("headless stream: run retried %d, rows equal to in-process: %v", out.Dist.Retried, sameRows(got, local))
	}
}

// headerSwap writes a JSON array where a stream's header line would be.
type headerSwap struct {
	http.ResponseWriter
	done bool
}

func (h *headerSwap) Write(b []byte) (int, error) {
	if !h.done && bytes.HasPrefix(b, []byte(`{"id":`)) {
		h.done = true
		if _, err := h.ResponseWriter.Write([]byte("[]\n")); err != nil {
			return 0, err
		}
		return len(b), nil
	}
	return h.ResponseWriter.Write(b)
}

func (h *headerSwap) Flush() { h.ResponseWriter.(http.Flusher).Flush() }
