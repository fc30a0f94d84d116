package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/matex-sim/matex/internal/serve"
	"github.com/matex-sim/matex/internal/transient"
)

// sseSample is one parsed SSE sample event: the event ID from its `id:`
// line and the decoded sample chunk.
type sseSample struct {
	id  int
	seq int
	t   float64
	v   []float64
}

// readSSE consumes an SSE stream until the done tail, limit sample events
// have arrived (limit > 0), or the body ends. It returns the sample events
// and whether the done tail was seen.
func readSSE(t *testing.T, body *bufio.Scanner, limit int) (samples []sseSample, done bool) {
	t.Helper()
	id := 0
	for body.Scan() {
		line := body.Text()
		switch {
		case line == "":
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.Atoi(strings.TrimPrefix(line, "id: "))
			if err != nil {
				t.Fatalf("bad SSE id line %q", line)
			}
			id = n
		case strings.HasPrefix(line, "data: "):
			var chunk struct {
				Done *bool     `json:"done"`
				Seq  int       `json:"seq"`
				T    float64   `json:"t"`
				V    []float64 `json:"v"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &chunk); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
			if chunk.Done != nil {
				return samples, true
			}
			if chunk.Seq > 0 {
				if chunk.Seq != id {
					t.Fatalf("sample seq %d under id: %d", chunk.Seq, id)
				}
				samples = append(samples, sseSample{id: id, seq: chunk.Seq, t: chunk.T, v: chunk.V})
				if limit > 0 && len(samples) >= limit {
					return samples, false
				}
			}
		default:
			t.Fatalf("non-SSE line %q", line)
		}
	}
	return samples, false
}

// TestSSEReconnectResumesAtLastEventID is the dropped-consumer test: an SSE
// client disconnects mid-stream and reconnects with Last-Event-ID (exactly
// what the browser EventSource does); the two connections together must
// yield every sample exactly once — contiguous sequence numbers, no gaps,
// no duplicates — and match a full replay of the finished job.
func TestSSEReconnectResumesAtLastEventID(t *testing.T) {
	deckText := testDeck(t)
	_, base, shutdown := testServer(t, serve.Config{Workers: 1, QueueDepth: 4})
	defer shutdown(context.Background())

	// A slow fixed-step job (5000 samples) so the first connection drops
	// while the integrator is still producing.
	resp := postJSON(t, base+"/v1/jobs", serve.JobSpec{Netlist: deckText, Method: "tr", Step: 2e-12})
	var st serve.Status
	if err := jsonDecode(resp, &st); err != nil {
		t.Fatal(err)
	}
	streamURL := base + "/v1/jobs/" + st.ID + "/stream?sse=1"

	// Connection 1: take 40 samples, then drop the connection mid-stream.
	resp1, err := http.Get(streamURL)
	if err != nil {
		t.Fatal(err)
	}
	sc1 := bufio.NewScanner(resp1.Body)
	sc1.Buffer(make([]byte, 1<<20), 1<<24)
	first, done := readSSE(t, sc1, 40)
	resp1.Body.Close()
	if done || len(first) != 40 {
		t.Fatalf("first connection got %d samples (done=%v), want 40 mid-run", len(first), done)
	}

	// Connection 2: reconnect the way EventSource does, Last-Event-ID set to
	// the last sample we actually processed.
	req, err := http.NewRequest(http.MethodGet, streamURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("Last-Event-ID", strconv.Itoa(first[len(first)-1].id))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	sc2 := bufio.NewScanner(resp2.Body)
	sc2.Buffer(make([]byte, 1<<20), 1<<24)
	rest, done := readSSE(t, sc2, 0)
	if !done {
		t.Fatal("second connection ended without the done tail")
	}

	// Stitch and verify: seq 1..N exactly once, in order.
	all := append(first, rest...)
	for i, s := range all {
		if s.seq != i+1 {
			t.Fatalf("stitched stream seq[%d] = %d, want %d (gap or duplicate at the reconnect seam)", i, s.seq, i+1)
		}
	}

	// The stitched waveform must equal a full replay of the finished job.
	full := streamNDJSON(t, base+"/v1/jobs/"+st.ID+"/stream")
	if full.state != serve.JobDone {
		t.Fatalf("job ended %s (%s)", full.state, full.tailErr)
	}
	if len(all) != len(full.times) {
		t.Fatalf("stitched stream has %d samples, full replay %d", len(all), len(full.times))
	}
	for i := range all {
		if all[i].t != full.times[i] {
			t.Fatalf("stitched t[%d] = %g, full replay %g", i, all[i].t, full.times[i])
		}
		for k := range all[i].v {
			if all[i].v[k] != full.rows[i][k] {
				t.Fatalf("stitched v[%d][%d] differs from full replay", i, k)
			}
		}
	}
}

// TestNDJSONFromSeqCursor: ?from_seq=N skips the first N samples and the
// remainder carries contiguous sequence numbers from N+1 — the polling
// client's resume cursor. The tail reports the job's own sample count, also
// for a cursor past the end.
func TestNDJSONFromSeqCursor(t *testing.T) {
	deckText := testDeck(t)
	_, base, shutdown := testServer(t, serve.Config{Workers: 1, QueueDepth: 4})
	defer shutdown(context.Background())

	full := streamNDJSON(t, base+"/v1/simulate", serve.JobSpec{Netlist: deckText, Method: "rmatex", Tol: 1e-6})
	if full.state != serve.JobDone {
		t.Fatalf("job ended %s (%s)", full.state, full.tailErr)
	}
	n := len(full.times)
	if n < 4 {
		t.Fatalf("only %d samples", n)
	}

	for _, cursor := range []int{n / 2, n + 1000} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/stream?from_seq=%d", base, full.id, cursor))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		seen, wantSeq, tailSamples := 0, cursor+1, -1
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			var chunk struct {
				Done    *bool   `json:"done"`
				Samples int     `json:"samples"`
				Seq     int     `json:"seq"`
				T       float64 `json:"t"`
			}
			if err := json.Unmarshal([]byte(line), &chunk); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", line, err)
			}
			if chunk.Done != nil {
				tailSamples = chunk.Samples
				break
			}
			if chunk.Seq == 0 { // header
				continue
			}
			if chunk.Seq != wantSeq {
				t.Fatalf("cursor %d: stream seq %d, want %d", cursor, chunk.Seq, wantSeq)
			}
			if chunk.T != full.times[chunk.Seq-1] {
				t.Fatalf("cursor %d: stream t=%g at seq %d, full stream %g", cursor, chunk.T, chunk.Seq, full.times[chunk.Seq-1])
			}
			wantSeq++
			seen++
		}
		resp.Body.Close()
		if want := max(0, n-cursor); seen != want {
			t.Fatalf("cursor %d: stream yielded %d samples, want %d", cursor, seen, want)
		}
		if tailSamples != n {
			t.Fatalf("cursor %d: tail reports %d samples, the job has %d", cursor, tailSamples, n)
		}
	}
}

// TestCrashRestartAcrossTheTreatmentSwitch kills the service at chosen
// points of an R-MATEX job whose ramps move from the augmented to the
// deviation treatment mid-run (ibmpg1t at 0.5 pF per node, a checkpoint per
// segment): the journal cut after a checkpoint record is exactly what a
// kill -9 at that instant leaves behind. A restart from the last checkpoint
// before the move and from one after it must stream the uninterrupted run's
// samples bit for bit; a journal whose checkpoint predates the choice fields
// must still decode and finish within the solver's budget.
func TestCrashRestartAcrossTheTreatmentSwitch(t *testing.T) {
	deckText := testDeckCNode(t, 1, 0.5e-12)
	dirA := t.TempDir()
	_, baseA, shutdownA := testServer(t, serve.Config{Workers: 1, QueueDepth: 4, StateDir: dirA, CheckpointEvery: 1})
	spec := serve.JobSpec{Netlist: deckText, Method: "rmatex"}
	ref := streamNDJSON(t, baseA+"/v1/simulate", spec)
	if ref.state != serve.JobDone {
		t.Fatalf("reference job ended %s (%s)", ref.state, ref.tailErr)
	}
	if err := shutdownA(context.Background()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(journalPath(dirA))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	var cpLines []int // journal lines holding a checkpoint record
	sw := -1          // index into cpLines of the first checkpoint after the move
	for i, line := range lines {
		var rec struct {
			Rec string                `json:"rec"`
			Cp  *transient.Checkpoint `json:"cp"`
		}
		if json.Unmarshal([]byte(line), &rec) != nil || rec.Rec != "checkpoint" {
			continue
		}
		if sw < 0 && rec.Cp.DevPairs > 0 && rec.Cp.DevPairs < rec.Cp.AugPairs {
			sw = len(cpLines)
		}
		cpLines = append(cpLines, i)
	}
	if sw < 1 || sw+8 >= len(cpLines) {
		t.Fatalf("the choice moved at checkpoint %d of %d: not a deck that switches", sw, len(cpLines))
	}

	restart := func(journal string) *streamedJob {
		dirB := t.TempDir()
		if err := os.WriteFile(journalPath(dirB), []byte(journal), 0o644); err != nil {
			t.Fatal(err)
		}
		_, baseB, shutdownB := testServer(t, serve.Config{Workers: 1, QueueDepth: 4, StateDir: dirB, CheckpointEvery: 1})
		defer shutdownB(context.Background())
		if stats := getStats(t, baseB); stats.Resumed != 1 {
			t.Fatalf("restarted server resumed %d jobs, want 1", stats.Resumed)
		}
		got := streamNDJSON(t, baseB+"/v1/jobs/"+ref.id+"/stream")
		if got.state != serve.JobDone {
			t.Fatalf("resumed job ended %s (%s)", got.state, got.tailErr)
		}
		return got
	}
	for _, k := range []int{sw - 1, sw + 8} {
		got := restart(strings.Join(lines[:cpLines[k]+1], ""))
		if !reflect.DeepEqual(got.times, ref.times) || !reflect.DeepEqual(got.rows, ref.rows) {
			t.Errorf("restart after checkpoint %d: stream is not bit-identical to the uninterrupted job's", k)
		}
	}

	// The same crash as an older build would have journaled it.
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[cpLines[sw+8]]), &rec); err != nil {
		t.Fatal(err)
	}
	cp := rec["cp"].(map[string]any)
	delete(cp, "aug_pairs")
	delete(cp, "dev_pairs")
	old, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	got := restart(strings.Join(lines[:cpLines[sw+8]], "") + string(old) + "\n")
	if !reflect.DeepEqual(got.times, ref.times) {
		t.Fatalf("restart from a journal without choice fields: %d samples, want %d", len(got.times), len(ref.times))
	}
	for i := range ref.rows {
		for k := range ref.rows[i] {
			if d := math.Abs(got.rows[i][k] - ref.rows[i][k]); d > 1e-6 {
				t.Fatalf("restart from a journal without choice fields: %g V off at t=%g", d, ref.times[i])
			}
		}
	}
}
