package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/matex-sim/matex/internal/serve"
	"github.com/matex-sim/matex/internal/sweep"
	"github.com/matex-sim/matex/internal/transient"
)

// jsonDecode decodes a JSON response body and closes it.
func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// streamNDJSON consumes an NDJSON stream: GET on a stream URL, or POST when
// a spec is given (/v1/simulate). Blocks until the done tail arrives.
func streamNDJSON(t *testing.T, url string, spec ...serve.JobSpec) *streamedJob {
	t.Helper()
	var resp *http.Response
	if len(spec) > 0 {
		resp = postJSON(t, url, spec[0])
	} else {
		var err error
		if resp, err = http.Get(url); err != nil {
			t.Fatal(err)
		}
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	return readStream(t, sc)
}

// guardGoroutines snapshots the goroutine count and returns a check that
// fails the test if it has not returned to (near) the baseline — the
// chaos suites' no-leak assertion.
func guardGoroutines(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base+2 {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d at start, %d now\n%s", base, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// journalPath is where the server keeps its journal under a state dir.
func journalPath(dir string) string { return filepath.Join(dir, "journal.jsonl") }

// waitForJournal polls the journal file until it holds a mid-run snapshot:
// marker present, but no terminal record yet — what a kill -9 during the
// run would have left behind. A journal that reaches "done" before a
// marker-bearing snapshot was captured fails the test (the job must be
// slow enough to catch mid-run).
func waitForJournal(t *testing.T, path, marker string) []byte {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		b, err := os.ReadFile(path)
		if err == nil && strings.Contains(string(b), marker) {
			if strings.Contains(string(b), `"rec":"done"`) {
				t.Fatalf("journal reached a terminal record before a mid-run snapshot could be taken")
			}
			return b
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal %s never contained %q", path, marker)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func getStats(t *testing.T, base string) serve.StatsReply {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.StatsReply
	if err := jsonDecode(resp, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestReadyzFlipsOnDrainAndRetryAfterOn429: /readyz answers 200 while the
// intake is open and 503 the moment draining begins (while /healthz stays
// 200 — the process is alive, just not accepting), and a 429 rejection
// carries a Retry-After estimate derived from the backlog.
func TestReadyzFlipsOnDrainAndRetryAfter(t *testing.T) {
	deckText := testDeck(t)
	srv, base, shutdown := testServer(t, serve.Config{Workers: 1, QueueDepth: 1})
	defer shutdown(context.Background())

	ready, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusOK {
		t.Fatalf("readyz %d before drain, want 200", ready.StatusCode)
	}

	// Saturate: one slow job running, one queued; the third answers 429
	// with a Retry-After estimate.
	// ~100k fixed steps: slow enough that the single worker is pinned while
	// the queue fills behind it (the jobs are canceled at the end).
	slow := serve.JobSpec{Netlist: deckText, Method: "tr", Step: 1e-13}
	first := postJSON(t, base+"/v1/jobs", slow)
	first.Body.Close()
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status %d", first.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp := postJSON(t, base+"/v1/jobs", slow)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if after := resp.Header.Get("Retry-After"); after == "" || after == "0" {
				t.Fatalf("429 without a usable Retry-After (%q)", after)
			}
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("overload submit status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
	}

	srv.BeginDrain()
	ready, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz %d during drain, want 503", ready.StatusCode)
	}
	alive, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	alive.Body.Close()
	if alive.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d during drain, want 200", alive.StatusCode)
	}
	// Unblock the drain: the slow jobs would otherwise run for a while.
	for _, j := range srv.Jobs() {
		j.Cancel()
	}
}

// TestCrashRestartResumesFromCheckpoint is the kill -9 acceptance test: a
// journal-backed server is interrupted mid-job, a second server starts on
// the journal as it existed at the interruption instant, resumes the job
// from its last durable checkpoint, and the stitched waveform (restored
// samples + resumed tail) matches the uninterrupted run to <= 1e-12 with
// the exact same time grid — no gaps, no duplicates.
//
// The "crash" is a byte-for-byte copy of the append-only journal taken
// while server A is mid-run: that file is exactly what a SIGKILLed process
// would have left on disk at that instant (the real-signal version lives in
// scripts/e2e_smoke.sh). Server A then finishes cleanly to provide the
// uninterrupted reference.
func TestCrashRestartResumesFromCheckpoint(t *testing.T) {
	leak := guardGoroutines(t)
	deckText := testDeck(t)
	dirA, dirB := t.TempDir(), t.TempDir()

	_, baseA, shutdownA := testServer(t, serve.Config{
		Workers: 1, QueueDepth: 4, StateDir: dirA, CheckpointEvery: 100,
	})
	// A deliberately long fixed-step run (5000 steps) so the mid-run journal
	// snapshot below is guaranteed to land while the integrator is inside it.
	resp := postJSON(t, baseA+"/v1/jobs", serve.JobSpec{Netlist: deckText, Method: "tr", Step: 2e-12})
	var st serve.Status
	if err := jsonDecode(resp, &st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	// Snapshot the journal once it provably holds a mid-run checkpoint.
	snapshot := waitForJournal(t, journalPath(dirA), `"rec":"checkpoint"`)
	if err := os.WriteFile(journalPath(dirB), snapshot, 0o644); err != nil {
		t.Fatal(err)
	}

	// Let A finish untouched: its stream is the uninterrupted reference.
	ref := streamNDJSON(t, baseA+"/v1/jobs/"+st.ID+"/stream")
	if ref.state != serve.JobDone {
		t.Fatalf("reference job ended %s (%s)", ref.state, ref.tailErr)
	}
	if err := shutdownA(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Server B starts on the snapshot: the job must come back under its
	// original ID, resume from the checkpoint, and complete.
	_, baseB, shutdownB := testServer(t, serve.Config{
		Workers: 1, QueueDepth: 4, StateDir: dirB, CheckpointEvery: 100,
	})
	defer func() {
		if err := shutdownB(context.Background()); err != nil {
			t.Fatal(err)
		}
		leak()
	}()
	if stats := getStats(t, baseB); stats.Resumed != 1 {
		t.Fatalf("restarted server resumed %d jobs, want 1", stats.Resumed)
	}
	got := streamNDJSON(t, baseB+"/v1/jobs/"+st.ID+"/stream")
	if got.state != serve.JobDone {
		t.Fatalf("resumed job ended %s (%s)", got.state, got.tailErr)
	}

	if len(got.times) != len(ref.times) {
		t.Fatalf("resumed waveform has %d samples, reference %d", len(got.times), len(ref.times))
	}
	for i := range ref.times {
		if got.times[i] != ref.times[i] {
			t.Fatalf("time grid diverges at %d: %g vs %g (gap or duplicate)", i, got.times[i], ref.times[i])
		}
		for k := range ref.rows[i] {
			if d := math.Abs(got.rows[i][k] - ref.rows[i][k]); d > 1e-12 {
				t.Fatalf("resumed waveform deviates %g at t=%g (probe %d)", d, ref.times[i], k)
			}
		}
	}
}

// TestRestartPrunesCompletedJobs: a finished job's journal entries are
// compacted away on restart, nothing is resumed, and the job counter keeps
// counting past every journaled ID (no reuse after restart).
func TestRestartPrunesCompletedJobs(t *testing.T) {
	deckText := testDeck(t)
	dir := t.TempDir()

	_, base, shutdown := testServer(t, serve.Config{Workers: 1, QueueDepth: 4, StateDir: dir})
	done := streamNDJSON(t, base+"/v1/simulate", serve.JobSpec{Netlist: deckText, Method: "rmatex", Tol: 1e-6})
	if done.state != serve.JobDone {
		t.Fatalf("job ended %s (%s)", done.state, done.tailErr)
	}
	if err := shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	_, base2, shutdown2 := testServer(t, serve.Config{Workers: 1, QueueDepth: 4, StateDir: dir})
	defer shutdown2(context.Background())
	stats := getStats(t, base2)
	if stats.Resumed != 0 {
		t.Fatalf("restart resumed %d completed jobs", stats.Resumed)
	}
	if b, err := os.ReadFile(journalPath(dir)); err != nil || strings.Contains(string(b), `"rec":"spec"`) {
		t.Fatalf("journal not compacted after restart (err=%v, %d bytes)", err, len(b))
	}
	resp := postJSON(t, base2+"/v1/jobs", serve.JobSpec{Netlist: deckText, Method: "rmatex", Tol: 1e-6})
	var st serve.Status
	if err := jsonDecode(resp, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-2" {
		t.Fatalf("restarted server issued %s, want job-2 (counter must outlive restarts)", st.ID)
	}
}

// TestJournalAppendFaultRejectsSubmit injects a journal-append failure
// (disk full) at submit: the submission is rejected with the typed journal
// error over HTTP as a 500, the server stays healthy, and the next submit
// succeeds — an accepted job is always a durable job.
func TestJournalAppendFaultRejectsSubmit(t *testing.T) {
	leak := guardGoroutines(t)
	deckText := testDeck(t)

	srv, base, shutdown := testServer(t, serve.Config{
		Workers: 1, QueueDepth: 4, StateDir: t.TempDir(),
	})
	defer func() {
		if err := shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		leak()
	}()

	srv.FailNextAppend("spec")
	_, err := srv.Submit(serve.JobSpec{Netlist: deckText, Method: "rmatex", Tol: 1e-6})
	if !errors.Is(err, serve.ErrJournal) || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("faulted submit returned %v, want ErrJournal wrapping an injected fault", err)
	}
	if srv.AppendFaultArmed() {
		t.Fatal("fault still armed after the faulted submit")
	}

	// HTTP mapping: arm one more and check the 500.
	srv.FailNextAppend("spec")
	resp := postJSON(t, base+"/v1/jobs", serve.JobSpec{Netlist: deckText, Method: "rmatex", Tol: 1e-6})
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted submit answered %d, want 500", resp.StatusCode)
	}
	if srv.AppendFaultArmed() {
		t.Fatal("fault still armed after the faulted post")
	}

	// The fault is spent: the service accepts and completes the next job.
	done := streamNDJSON(t, base+"/v1/simulate", serve.JobSpec{Netlist: deckText, Method: "rmatex", Tol: 1e-6})
	if done.state != serve.JobDone {
		t.Fatalf("post-fault job ended %s (%s)", done.state, done.tailErr)
	}
}

// TestCheckpointWriteFaultFailsJob injects a torn checkpoint write mid-run:
// the job fails with the injected error (never silently keeps running with
// a broken durability story), and a restart does not resurrect it — its
// terminal record made the outcome durable.
func TestCheckpointWriteFaultFailsJob(t *testing.T) {
	leak := guardGoroutines(t)
	deckText := testDeck(t)
	dir := t.TempDir()

	srv, base, shutdown := testServer(t, serve.Config{
		Workers: 1, QueueDepth: 4, StateDir: dir, CheckpointEvery: 10,
	})
	srv.FailNextAppend("checkpoint")
	got := streamNDJSON(t, base+"/v1/simulate", serve.JobSpec{Netlist: deckText, Method: "tr"})
	if got.state != serve.JobFailed {
		t.Fatalf("checkpoint-faulted job ended %s, want failed", got.state)
	}
	if !strings.Contains(got.tailErr, "injected fault") {
		t.Fatalf("job error %q does not surface the injected fault", got.tailErr)
	}
	if srv.AppendFaultArmed() {
		t.Fatal("fault still armed after the faulted checkpoint")
	}
	if err := shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	leak()

	_, base2, shutdown2 := testServer(t, serve.Config{Workers: 1, QueueDepth: 4, StateDir: dir})
	defer shutdown2(context.Background())
	if stats := getStats(t, base2); stats.Resumed != 0 {
		t.Fatalf("failed job resurrected on restart (%d resumed)", stats.Resumed)
	}
}

// TestRestoredUnbuildableSpecIsCountedAndLaidToRest: a journaled spec that
// no longer builds under this binary (here an ordering the parser has
// dropped) is restored as a failed job — visible to the client, counted so
// the /stats invariant accepted = completed + failed + canceled + queued +
// in-flight holds, and journaled done, so the next start compacts it away
// instead of resurrecting and re-failing it for ever.
func TestRestoredUnbuildableSpecIsCountedAndLaidToRest(t *testing.T) {
	dir := t.TempDir()
	rec, err := json.Marshal(map[string]any{
		"rec": "spec", "id": "job-7", "seq": 7,
		"spec": serve.JobSpec{Case: "ibmpg1t", Scale: 0.25, Ordering: "rcm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), append(rec, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	_, base, shutdown := testServer(t, serve.Config{Workers: 1, QueueDepth: 4, StateDir: dir})
	st := getStats(t, base)
	if st.Accepted != 1 || st.Failed != 1 || st.Resumed != 0 ||
		st.Accepted != st.Completed+st.Failed+st.Canceled+uint64(st.QueueDepth+st.InFlight) {
		t.Fatalf("first start: accepted %d = completed %d + failed %d + canceled %d + queued %d + in flight %d, resumed %d; want 1 accepted, 1 failed, 0 resumed",
			st.Accepted, st.Completed, st.Failed, st.Canceled, st.QueueDepth, st.InFlight, st.Resumed)
	}
	resp, err := http.Get(base + "/v1/jobs/job-7")
	if err != nil {
		t.Fatal(err)
	}
	var job serve.Status
	if err := jsonDecode(resp, &job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if job.State != serve.JobFailed || !strings.Contains(job.Error, "rcm") {
		t.Fatalf("restored job is %s (%q), want failed naming the ordering", job.State, job.Error)
	}
	if err := shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	_, base2, shutdown2 := testServer(t, serve.Config{Workers: 1, QueueDepth: 4, StateDir: dir})
	defer shutdown2(context.Background())
	if st := getStats(t, base2); st.Accepted != 0 || st.Failed != 0 || st.Resumed != 0 {
		t.Fatalf("second start restored the dead spec again: accepted %d, failed %d, resumed %d", st.Accepted, st.Failed, st.Resumed)
	}
	// The job counter still resumes past every journaled ID.
	got := streamNDJSON(t, base2+"/v1/simulate", serve.JobSpec{Case: "ibmpg1t", Scale: 0.25})
	if got.state != serve.JobDone || got.id != "job-8" {
		t.Fatalf("next job is %s, %s; want job-8 done", got.id, got.state)
	}
}

// journalRecs decodes a journal's complete lines, one map per record.
func journalRecs(t *testing.T, journal []byte) []map[string]any {
	t.Helper()
	var recs []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(string(journal)), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line does not decode: %v in %.80q", err, line)
		}
		recs = append(recs, rec)
	}
	return recs
}

// countRecs counts a journal's records of one kind.
func countRecs(journal []byte, kind string) int {
	return strings.Count(string(journal), `"rec":"`+kind+`"`)
}

// writeJournal writes records (maps, or verbatim lines as []byte) as the
// journal of a fresh state dir and returns the dir.
func writeJournal(t *testing.T, recs ...any) string {
	t.Helper()
	dir := t.TempDir()
	var data []byte
	for _, rec := range recs {
		line, ok := rec.([]byte)
		if !ok {
			var err error
			if line, err = json.Marshal(rec); err != nil {
				t.Fatal(err)
			}
			line = append(line, '\n')
		}
		data = append(data, line...)
	}
	if err := os.WriteFile(journalPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// deckHash is the journal's name for an inline deck.
func deckHash(netlist string) string {
	sum := sha256.Sum256([]byte(netlist))
	return hex.EncodeToString(sum[:])
}

// deckRec and specRec are the two records a submission leaves.
func deckRec(netlist string) map[string]any {
	return map[string]any{"rec": "deck", "hash": deckHash(netlist), "netlist": netlist}
}

func specRec(seq int, hash string, spec serve.JobSpec) map[string]any {
	return map[string]any{"rec": "spec", "id": "job-" + strconv.Itoa(seq), "seq": seq, "hash": hash, "spec": spec}
}

// TestCrashRestartTwoJobsOnOneDeck: N jobs on one deck leave one deck record
// and N netlist-free specs; a restart on the journal a kill -9 would have
// left parses the deck once for both and each stream finishes bit for bit as
// the uninterrupted job's.
func TestCrashRestartTwoJobsOnOneDeck(t *testing.T) {
	leak := guardGoroutines(t)
	deckText := testDeck(t)
	dirA, dirB := t.TempDir(), t.TempDir()
	cfg := serve.Config{Workers: 2, QueueDepth: 4, CheckpointEvery: 100}

	cfg.StateDir = dirA
	_, baseA, shutdownA := testServer(t, cfg)
	spec := serve.JobSpec{Netlist: deckText, Method: "tr", Step: 2e-12} // 5000 steps
	var ids [2]string
	for i := range ids {
		resp := postJSON(t, baseA+"/v1/jobs", spec)
		var st serve.Status
		if err := jsonDecode(resp, &st); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, %v", i, resp.StatusCode, err)
		}
		ids[i] = st.ID
	}
	snapshot := waitForJournal(t, journalPath(dirA), `"rec":"checkpoint"`)
	if decks, specs := countRecs(snapshot, "deck"), countRecs(snapshot, "spec"); decks != 1 || specs != 2 {
		t.Fatalf("journal holds %d deck and %d spec records for two jobs on one deck, want 1 and 2", decks, specs)
	}
	if n := strings.Count(string(snapshot), "Iload1 "); n != 1 {
		t.Fatalf("the deck text is in the journal %d times, want once", n)
	}
	if err := os.WriteFile(journalPath(dirB), snapshot, 0o644); err != nil {
		t.Fatal(err)
	}
	var refs [2]*streamedJob
	for i, id := range ids {
		if refs[i] = streamNDJSON(t, baseA+"/v1/jobs/"+id+"/stream"); refs[i].state != serve.JobDone {
			t.Fatalf("reference job %s ended %s (%s)", id, refs[i].state, refs[i].tailErr)
		}
	}
	if err := shutdownA(context.Background()); err != nil {
		t.Fatal(err)
	}

	cfg.StateDir = dirB
	_, baseB, shutdownB := testServer(t, cfg)
	defer func() {
		if err := shutdownB(context.Background()); err != nil {
			t.Fatal(err)
		}
		leak()
	}()
	stats := getStats(t, baseB)
	if stats.Resumed != 2 || stats.DeckStore.Misses != 1 || stats.DeckStore.Hits != 1 {
		t.Fatalf("restart resumed %d jobs with deck store %+v, want 2 jobs on 1 parse", stats.Resumed, stats.DeckStore)
	}
	for i, id := range ids {
		got := streamNDJSON(t, baseB+"/v1/jobs/"+id+"/stream")
		if got.state != serve.JobDone {
			t.Fatalf("resumed job %s ended %s (%s)", id, got.state, got.tailErr)
		}
		if !reflect.DeepEqual(got.times, refs[i].times) || !reflect.DeepEqual(got.rows, refs[i].rows) {
			t.Errorf("resumed job %s is not bit-identical to the uninterrupted one", id)
		}
	}
	compacted, err := os.ReadFile(journalPath(dirB))
	if err != nil {
		t.Fatal(err)
	}
	if decks := countRecs(compacted, "deck"); decks != 1 {
		t.Fatalf("the compacted journal holds %d deck records, want 1", decks)
	}
}

// TestTornDeckOrSpecRecordStartsClean: a crash inside the deck record,
// between the deck record and its spec, or inside the spec leaves no job —
// the submission was never acknowledged. The server starts empty, compacts
// the fragment away, and journals the deck afresh for the next job on it.
func TestTornDeckOrSpecRecordStartsClean(t *testing.T) {
	deckText := testDeck(t)
	deckLine, err := json.Marshal(deckRec(deckText))
	if err != nil {
		t.Fatal(err)
	}
	specLine, err := json.Marshal(specRec(1, deckHash(deckText), serve.JobSpec{Method: "tr"}))
	if err != nil {
		t.Fatal(err)
	}
	whole := string(deckLine) + "\n"
	for name, journal := range map[string]string{
		"inside the deck record":      string(deckLine[:len(deckLine)/2]),
		"deck record without newline": string(deckLine),
		"between deck and spec":       whole,
		"inside the spec record":      whole + string(specLine[:len(specLine)/2]),
	} {
		dir := writeJournal(t, []byte(journal))
		_, base, shutdown := testServer(t, serve.Config{Workers: 1, QueueDepth: 4, StateDir: dir})
		if st := getStats(t, base); st.Accepted != 0 || st.Resumed != 0 || st.Failed != 0 || st.DeckStore.Misses != 0 {
			t.Errorf("cut %s: accepted %d, resumed %d, failed %d, %d decks parsed; want a clean start",
				name, st.Accepted, st.Resumed, st.Failed, st.DeckStore.Misses)
		}
		if b, err := os.ReadFile(journalPath(dir)); err != nil || len(b) != 0 {
			t.Errorf("cut %s: %d bytes left after compaction (err %v), want none", name, len(b), err)
		}
		got := streamNDJSON(t, base+"/v1/simulate", serve.JobSpec{Netlist: deckText})
		if got.state != serve.JobDone || got.id != "job-1" {
			t.Errorf("cut %s: next job is %s, %s; want job-1 done", name, got.id, got.state)
		}
		if b, err := os.ReadFile(journalPath(dir)); err != nil || countRecs(b, "deck") != 1 {
			t.Errorf("cut %s: the new generation holds %d deck records (err %v), want 1", name, countRecs(b, "deck"), err)
		}
		if err := shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSpecWithoutItsDeckFails: a spec whose referenced deck the journal does
// not hold — never written, or a body that is not the one its record names —
// comes back as a failed job with the typed error, beside a healthy job that
// resumes; /stats stays balanced and the next restart does not resurrect it.
func TestSpecWithoutItsDeckFails(t *testing.T) {
	deckText := testDeck(t)
	other := strings.Replace(deckText, " 0 1.8\n", " 0 1.9\n", 1)
	impostor := deckRec(other)
	impostor["hash"] = deckHash(deckText)
	for name, recs := range map[string][]any{
		"no deck record":                {specRec(3, deckHash(deckText), serve.JobSpec{}), specRec(4, "", serve.JobSpec{Case: "ibmpg1t", Scale: 0.25})},
		"a body that is not the hash's": {impostor, specRec(3, deckHash(deckText), serve.JobSpec{}), specRec(4, "", serve.JobSpec{Case: "ibmpg1t", Scale: 0.25})},
	} {
		dir := writeJournal(t, recs...)
		_, base, shutdown := testServer(t, serve.Config{Workers: 1, QueueDepth: 4, StateDir: dir})
		if got := streamNDJSON(t, base+"/v1/jobs/job-4/stream"); got.state != serve.JobDone {
			t.Fatalf("%s: the healthy job ended %s (%s)", name, got.state, got.tailErr)
		}
		st := getStats(t, base)
		if st.Accepted != 2 || st.Failed != 1 || st.Resumed != 1 || st.Completed != 1 ||
			st.Accepted != st.Completed+st.Failed+st.Canceled+uint64(st.QueueDepth+st.InFlight) {
			t.Fatalf("%s: accepted %d = completed %d + failed %d + canceled %d + queued %d + in flight %d, resumed %d; want 2 = 1 + 1, 1 resumed",
				name, st.Accepted, st.Completed, st.Failed, st.Canceled, st.QueueDepth, st.InFlight, st.Resumed)
		}
		dead := streamNDJSON(t, base+"/v1/jobs/job-3/stream")
		if dead.state != serve.JobFailed || !strings.Contains(dead.tailErr, serve.ErrDeckMissing.Error()) || len(dead.times) != 0 {
			t.Fatalf("%s: the job without a deck is %s (%q) with %d samples, want failed with ErrDeckMissing and none",
				name, dead.state, dead.tailErr, len(dead.times))
		}
		if err := shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}

		_, base2, shutdown2 := testServer(t, serve.Config{Workers: 1, QueueDepth: 4, StateDir: dir})
		if st := getStats(t, base2); st.Accepted != 0 || st.Failed != 0 || st.Resumed != 0 {
			t.Fatalf("%s: second start restored the dead spec again: accepted %d, failed %d, resumed %d", name, st.Accepted, st.Failed, st.Resumed)
		}
		// The true deck under that hash is unaffected by what the journal held.
		got := streamNDJSON(t, base2+"/v1/simulate", serve.JobSpec{Netlist: deckText})
		want := oneShot(t, deckText, transient.RMATEX)
		if got.state != serve.JobDone || got.id != "job-5" || !reflect.DeepEqual(got.rows, want.Probes) {
			t.Fatalf("%s: next job is %s, %s; want job-5 done with the deck's one-shot waveform", name, got.id, got.state)
		}
		if err := shutdown2(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeletedMethodSpecFails: a spec and a checkpoint journaled by a binary
// that still had backward Euler restore through the unbuildable-spec path as
// a failed job that names the method — counted in /stats, its done record
// journaled so the next restart does not resurrect it — beside a healthy job
// that resumes. It is never run as another integrator.
func TestDeletedMethodSpecFails(t *testing.T) {
	deckText := testDeck(t)
	_, sys, _ := stampDeck(t, deckText)
	cp := transient.Checkpoint{Method: "be", T: 1e-9, X: make([]float64, sys.N)}
	dir := writeJournal(t,
		deckRec(deckText),
		specRec(1, deckHash(deckText), serve.JobSpec{Method: "be"}),
		map[string]any{"rec": "checkpoint", "id": "job-1", "cp": cp},
		specRec(2, "", serve.JobSpec{Case: "ibmpg1t", Scale: 0.25}),
	)
	_, base, shutdown := testServer(t, serve.Config{Workers: 1, QueueDepth: 4, StateDir: dir})
	if got := streamNDJSON(t, base+"/v1/jobs/job-2/stream"); got.state != serve.JobDone {
		t.Fatalf("the healthy job ended %s (%s)", got.state, got.tailErr)
	}
	if st := getStats(t, base); st.Accepted != 2 || st.Failed != 1 || st.Resumed != 1 || st.Completed != 1 {
		t.Fatalf("accepted %d, failed %d, resumed %d, completed %d; want 2, 1, 1, 1", st.Accepted, st.Failed, st.Resumed, st.Completed)
	}
	dead := streamNDJSON(t, base+"/v1/jobs/job-1/stream")
	if dead.state != serve.JobFailed || !strings.Contains(dead.tailErr, `unknown method "be"`) || len(dead.times) != 0 {
		t.Fatalf("the backward-Euler job is %s (%q) with %d samples, want failed on the unknown method and none",
			dead.state, dead.tailErr, len(dead.times))
	}
	b, err := os.ReadFile(journalPath(dir))
	if err != nil || !strings.Contains(string(b), `{"rec":"done","id":"job-1","state":"failed"`) {
		t.Fatalf("no failed done record for job-1 in the journal (err %v)", err)
	}
	if err := shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	_, base2, shutdown2 := testServer(t, serve.Config{Workers: 1, QueueDepth: 4, StateDir: dir})
	defer shutdown2(context.Background())
	if st := getStats(t, base2); st.Accepted != 0 || st.Failed != 0 || st.Resumed != 0 {
		t.Fatalf("second start restored the dead spec again: accepted %d, failed %d, resumed %d", st.Accepted, st.Failed, st.Resumed)
	}
}

// TestInlineNetlistJournalReplays: a journal as the previous format wrote it
// — the netlist inline in every spec record, no deck records, and the
// since-deleted "solve_workers" knob set — still restores: a job without a
// checkpoint runs from the start, one with a checkpoint resumes from it,
// both to the bytes of an uninterrupted run, and the compaction at startup
// leaves the file by reference and without the dead field.
func TestInlineNetlistJournalReplays(t *testing.T) {
	deckText := testDeck(t)
	dirA := t.TempDir()
	cfg := serve.Config{Workers: 1, QueueDepth: 4, CheckpointEvery: 100}

	cfg.StateDir = dirA
	_, baseA, shutdownA := testServer(t, cfg)
	spec := serve.JobSpec{Netlist: deckText, Method: "tr", Step: 2e-12}
	resp := postJSON(t, baseA+"/v1/jobs", spec)
	var st serve.Status
	if err := jsonDecode(resp, &st); err != nil {
		t.Fatal(err)
	}
	snapshot := waitForJournal(t, journalPath(dirA), `"rec":"checkpoint"`)
	ref := streamNDJSON(t, baseA+"/v1/jobs/"+st.ID+"/stream")
	if ref.state != serve.JobDone {
		t.Fatalf("reference job ended %s (%s)", ref.state, ref.tailErr)
	}
	if err := shutdownA(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Rewrite the snapshot the way the older binary journaled the same run:
	// drop the deck record, put its text back into the spec, and set the
	// spec field that binary still had.
	var old []any
	for i, line := range bytes.SplitAfter(snapshot, []byte("\n")) {
		var rec map[string]any
		if json.Unmarshal(line, &rec) != nil { // the torn tail of the snapshot, verbatim
			old = append(old, line)
			continue
		}
		switch rec["rec"] {
		case "deck":
			if i != 0 || rec["netlist"] != deckText {
				t.Fatalf("record %d is a deck record of %d bytes; want the submitted deck, first", i, len(rec["netlist"].(string)))
			}
		case "spec":
			if rec["hash"] != deckHash(deckText) || rec["spec"].(map[string]any)["netlist"] != nil {
				t.Fatalf("spec record carries hash %v and netlist %v; want the deck's hash and no text", rec["hash"], rec["spec"].(map[string]any)["netlist"])
			}
			delete(rec, "hash")
			rec["spec"].(map[string]any)["netlist"] = deckText
			rec["spec"].(map[string]any)["solve_workers"] = 4
			old = append(old, rec)
		default:
			old = append(old, line)
		}
	}
	for name, recs := range map[string][]any{"with a checkpoint": old, "without a checkpoint": old[:1]} {
		cfg.StateDir = writeJournal(t, recs...)
		_, baseB, shutdownB := testServer(t, cfg)
		if stats := getStats(t, baseB); stats.Resumed != 1 {
			t.Fatalf("%s: restart resumed %d jobs, want 1", name, stats.Resumed)
		}
		got := streamNDJSON(t, baseB+"/v1/jobs/"+st.ID+"/stream")
		if got.state != serve.JobDone {
			t.Fatalf("%s: restored job ended %s (%s)", name, got.state, got.tailErr)
		}
		if !reflect.DeepEqual(got.times, ref.times) || !reflect.DeepEqual(got.rows, ref.rows) {
			t.Errorf("%s: restored stream is not bit-identical to the uninterrupted job's", name)
		}
		compacted, err := os.ReadFile(journalPath(cfg.StateDir))
		if err != nil {
			t.Fatal(err)
		}
		if recs := journalRecs(t, compacted); recs[0]["rec"] != "deck" || recs[0]["hash"] != deckHash(deckText) ||
			recs[1]["rec"] != "spec" || recs[1]["hash"] != deckHash(deckText) || strings.Count(string(compacted), "Iload1 ") != 1 ||
			strings.Contains(string(compacted), "solve_workers") {
			t.Errorf("%s: compaction did not rewrite the journal by reference and without solve_workers: starts %v, %v", name, recs[0]["rec"], recs[1]["rec"])
		}
		if err := shutdownB(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSweepAndDistributedJobsRestoreThroughAReference: the two other kinds
// of job come back from a by-reference journal like a plain one — the sweep
// resuming its checkpointed lanes, the distributed job (which does not
// checkpoint) from the start — each to the uninterrupted run's bytes.
func TestSweepAndDistributedJobsRestoreThroughAReference(t *testing.T) {
	deckText := testDeck(t)
	for name, tc := range map[string]struct {
		spec   serve.JobSpec
		marker string
	}{
		"sweep": {serve.JobSpec{Netlist: deckText, Method: "tr", Step: 2e-12, Variants: []sweep.Variant{
			{Name: "a"},
			{Name: "b", SourceScales: map[string]float64{"Iload1": 1.3}},
		}}, `"rec":"checkpoint"`},
		"distributed": {serve.JobSpec{Netlist: deckText, Method: "tr", Step: 2e-12, Distributed: true}, `"rec":"spec"`},
	} {
		dirA, dirB := t.TempDir(), t.TempDir()
		cfg := serve.Config{Workers: 2, QueueDepth: 4, CheckpointEvery: 100}
		cfg.StateDir = dirA
		_, baseA, shutdownA := testServer(t, cfg)
		resp := postJSON(t, baseA+"/v1/jobs", tc.spec)
		var st serve.Status
		if err := jsonDecode(resp, &st); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: submit status %d, %v", name, resp.StatusCode, err)
		}
		snapshot := waitForJournal(t, journalPath(dirA), tc.marker)
		if countRecs(snapshot, "deck") != 1 || strings.Count(string(snapshot), "Iload1 ") != 1 {
			t.Fatalf("%s: journal holds %d deck records", name, countRecs(snapshot, "deck"))
		}
		if err := os.WriteFile(journalPath(dirB), snapshot, 0o644); err != nil {
			t.Fatal(err)
		}
		ref := readAnyStream(t, baseA+"/v1/jobs/"+st.ID+"/stream", tc.spec)
		if err := shutdownA(context.Background()); err != nil {
			t.Fatal(err)
		}

		cfg.StateDir = dirB
		_, baseB, shutdownB := testServer(t, cfg)
		if stats := getStats(t, baseB); stats.Resumed != 1 || stats.DeckStore.Misses != 1 {
			t.Fatalf("%s: restart resumed %d jobs on %d parses, want 1 on 1", name, stats.Resumed, stats.DeckStore.Misses)
		}
		if got := readAnyStream(t, baseB+"/v1/jobs/"+st.ID+"/stream", tc.spec); !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: restored job is not bit-identical to the uninterrupted one", name)
		}
		if err := shutdownB(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalRecordOver64MiBRestartsAndResumes: the journal reader takes any
// record the admission bound lets Submit write. A deck of 65 MiB — over the
// 64 MiB line cap replay once had, which turned one accepted job into a
// server that refused to start — is journaled, restored and run.
func TestJournalRecordOver64MiBRestartsAndResumes(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("moves a 65 MiB deck through the journal")
	}
	deckText := testDeck(t)
	title, rest, _ := strings.Cut(deckText, "\n")
	pad := "* " + strings.Repeat("x", 1021) + "\n"
	big := title + "\n" + strings.Repeat(pad, 65<<10) + rest
	if len(big) <= 64<<20 || len(big) > serve.MaxBodyBytes {
		t.Fatalf("padded deck is %d bytes", len(big))
	}
	want := oneShot(t, deckText, transient.RMATEX)

	// As a crash right after the submission was acknowledged left it.
	dir := writeJournal(t, deckRec(big), specRec(1, deckHash(big), serve.JobSpec{}))
	_, base, shutdown := testServer(t, serve.Config{Workers: 1, QueueDepth: 4, StateDir: dir})
	defer shutdown(context.Background())
	if st := getStats(t, base); st.Resumed != 1 || st.Failed != 0 || st.DeckStore.Bytes != int64(len(big)) {
		t.Fatalf("restart resumed %d jobs, failed %d, deck store holds %d bytes; want the one job on its %d-byte deck",
			st.Resumed, st.Failed, st.DeckStore.Bytes, len(big))
	}
	got := streamNDJSON(t, base+"/v1/jobs/job-1/stream")
	if got.state != serve.JobDone || !reflect.DeepEqual(got.rows, want.Probes) {
		t.Fatalf("restored job ended %s (%s); want done with the unpadded deck's waveform", got.state, got.tailErr)
	}
}
