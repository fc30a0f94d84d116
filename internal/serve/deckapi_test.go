package serve_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/matex-sim/matex/internal/job"
	"github.com/matex-sim/matex/internal/serve"
)

// do sends one request with a raw body and returns the status and the body.
func do(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// specBody is a spec as its JSON text.
func specBody(t *testing.T, spec serve.JobSpec) string {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDeckAPIRefusals: hostile deck input over HTTP — a spec naming its deck
// twice, a hash that is not one, a hash the server does not hold, a PUT body
// that is not its hash's, one past the body bound or one that does not
// parse, and "dc" off a task spec — gets a typed refusal with its status,
// and no refused PUT leaves a deck behind.
func TestDeckAPIRefusals(t *testing.T) {
	deckText := testDeck(t)
	hash := job.DeckHash(deckText)
	broken := "Rbroken 1\n"
	unknown := job.DeckHash("* a deck this server never saw\n.end\n")
	s, base, shutdown := testServer(t, serve.Config{Workers: 1, QueueDepth: 4})
	defer shutdown(context.Background())

	for _, c := range []struct {
		name, method, path, body string
		code                     int
		want                     string
	}{
		{"deck and netlist", "POST", "/v1/jobs", specBody(t, serve.JobSpec{Deck: hash, Netlist: deckText}), 400, job.ErrDeckChoice.Error()},
		{"deck and case", "POST", "/v1/simulate", specBody(t, serve.JobSpec{Deck: hash, Case: "ibmpg1t"}), 400, job.ErrDeckChoice.Error()},
		{"spec hash not hex", "POST", "/v1/jobs", specBody(t, serve.JobSpec{Deck: strings.Repeat("z", 64)}), 400, job.ErrDeckHash.Error()},
		{"spec hash short", "POST", "/v1/jobs", specBody(t, serve.JobSpec{Deck: hash[:63]}), 400, job.ErrDeckHash.Error()},
		{"PUT hash not hex", "PUT", "/v1/decks/" + strings.ToUpper(hash), deckText, 400, job.ErrDeckHash.Error()},
		{"GET hash short", "GET", "/v1/decks/abc", "", 400, job.ErrDeckHash.Error()},
		{"unknown hash", "POST", "/v1/simulate", specBody(t, serve.JobSpec{Deck: unknown}), 404, serve.ErrUnknownDeck.Error()},
		{"GET unknown hash", "GET", "/v1/decks/" + unknown, "", 404, serve.ErrUnknownDeck.Error()},
		{"PUT text not its hash", "PUT", "/v1/decks/" + unknown, deckText, 400, serve.ErrDeckMismatch.Error()},
		{"PUT malformed netlist", "PUT", "/v1/decks/" + job.DeckHash(broken), broken, 400, "netlist: line 1:"},
		{"dc without inputs", "POST", "/v1/jobs", specBody(t, serve.JobSpec{Case: "ibmpg1t", DC: true}), 400, job.ErrDCWithoutInputs.Error()},
	} {
		code, body := do(t, c.method, base+c.path, c.body)
		if code != c.code || !strings.Contains(body, c.want) {
			t.Errorf("%s: %d %s, want %d containing %q", c.name, code, strings.TrimSpace(body), c.code, c.want)
		}
	}

	// A PUT past the body bound is refused on its declared length, before a
	// byte of it is read.
	req := httptest.NewRequest("PUT", "/v1/decks/"+hash, strings.NewReader(deckText))
	req.ContentLength = 256<<20 + 1
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized PUT: %d %s, want 413", rec.Code, rec.Body)
	}

	if st := getStats(t, base); st.DeckPuts != 0 || st.Accepted != 0 {
		t.Fatalf("refusals were counted as %d PUTs and %d jobs", st.DeckPuts, st.Accepted)
	}
	for _, h := range []string{hash, unknown} {
		if code, _ := do(t, "GET", base+"/v1/decks/"+h, ""); code != http.StatusNotFound {
			t.Errorf("a refused PUT left a deck under %s: GET answers %d", h, code)
		}
	}
}

// TestDeckPutThenJobsByHash: a PUT deck is held (201, then GET 200 with its
// size); a second PUT of it answers 200 without a second parse or journal
// record; a job naming it by hash streams the rows of the same job with the
// netlist inline, bit for bit, and is counted as a deck-store hit.
func TestDeckPutThenJobsByHash(t *testing.T) {
	deckText := testDeck(t)
	hash := job.DeckHash(deckText)
	dir := t.TempDir()
	_, base, shutdown := testServer(t, serve.Config{Workers: 1, QueueDepth: 4, StateDir: dir})
	defer shutdown(context.Background())

	var put, get serve.DeckReply
	code, body := do(t, "PUT", base+"/v1/decks/"+hash, deckText)
	if code != http.StatusCreated || json.Unmarshal([]byte(body), &put) != nil || put.Hash != hash || put.Unknowns == 0 || put.Inputs == 0 {
		t.Fatalf("first PUT: %d %s", code, body)
	}
	code, body = do(t, "GET", base+"/v1/decks/"+hash, "")
	if code != http.StatusOK || json.Unmarshal([]byte(body), &get) != nil || get != put {
		t.Fatalf("GET after PUT: %d %s, want 200 %+v", code, body, put)
	}
	if code, body = do(t, "PUT", base+"/v1/decks/"+hash, deckText); code != http.StatusOK {
		t.Fatalf("second PUT: %d %s, want 200", code, body)
	}
	journal, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if n := countRecs(journal, "deck"); n != 1 {
		t.Fatalf("two PUTs of one deck left %d deck records", n)
	}
	if st := getStats(t, base); st.DeckStore.Misses != 1 || st.DeckPuts != 2 {
		t.Fatalf("after two PUTs: deck store %+v, %d PUTs; want one parse", st.DeckStore, st.DeckPuts)
	}

	byHash := streamNDJSON(t, base+"/v1/simulate", serve.JobSpec{Deck: hash})
	inline := streamNDJSON(t, base+"/v1/simulate", serve.JobSpec{Netlist: deckText})
	if byHash.state != serve.JobDone || inline.state != serve.JobDone {
		t.Fatalf("jobs ended %s (%s) and %s (%s)", byHash.state, byHash.tailErr, inline.state, inline.tailErr)
	}
	if len(byHash.times) < 3 || !reflect.DeepEqual(byHash.times, inline.times) || !reflect.DeepEqual(byHash.rows, inline.rows) {
		t.Fatal("the job by hash streamed other rows than the job with its netlist inline")
	}
	if st := getStats(t, base); st.DeckStore.Misses != 1 || st.DeckStore.Hits != 3 || st.InlineDecks != 1 {
		t.Fatalf("after a job by hash and one inline: deck store %+v, %d inline; want one parse, three hits", st.DeckStore, st.InlineDecks)
	}
}

// TestHashOnlyJobResumesAfterKill: a job that names its deck by hash on a
// durable server survives kill -9 — the restarted server finds the deck
// record the PUT journaled, resumes the job from its checkpoint and streams
// the uninterrupted waveform — while a server restarted once no live job is
// on the deck has forgotten it, and answers a job by its hash 404 rather
// than run on a guess.
func TestHashOnlyJobResumesAfterKill(t *testing.T) {
	deckText := testDeck(t)
	hash := job.DeckHash(deckText)
	dirA, dirB := t.TempDir(), t.TempDir()
	cfg := func(dir string) serve.Config {
		return serve.Config{Workers: 1, QueueDepth: 4, StateDir: dir, CheckpointEvery: 100}
	}

	_, baseA, shutdownA := testServer(t, cfg(dirA))
	if code, body := do(t, "PUT", baseA+"/v1/decks/"+hash, deckText); code != http.StatusCreated {
		t.Fatalf("PUT: %d %s", code, body)
	}
	resp := postJSON(t, baseA+"/v1/jobs", serve.JobSpec{Deck: hash, Method: "tr", Step: 2e-12})
	var st serve.Status
	if err := jsonDecode(resp, &st); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit by hash: %d %v", resp.StatusCode, err)
	}
	snapshot := waitForJournal(t, journalPath(dirA), `"rec":"checkpoint"`)
	if err := os.WriteFile(journalPath(dirB), snapshot, 0o644); err != nil {
		t.Fatal(err)
	}
	ref := streamNDJSON(t, baseA+"/v1/jobs/"+st.ID+"/stream")
	if ref.state != serve.JobDone {
		t.Fatalf("reference job ended %s (%s)", ref.state, ref.tailErr)
	}
	if err := shutdownA(context.Background()); err != nil {
		t.Fatal(err)
	}

	_, baseB, shutdownB := testServer(t, cfg(dirB))
	if stats := getStats(t, baseB); stats.Resumed != 1 {
		t.Fatalf("restarted server resumed %d jobs, want 1", stats.Resumed)
	}
	got := streamNDJSON(t, baseB+"/v1/jobs/"+st.ID+"/stream")
	if got.state != serve.JobDone || !reflect.DeepEqual(got.times, ref.times) {
		t.Fatalf("resumed job ended %s (%s) with %d samples, reference %d", got.state, got.tailErr, len(got.times), len(ref.times))
	}
	for i := range ref.rows {
		for k := range ref.rows[i] {
			if d := got.rows[i][k] - ref.rows[i][k]; d > 1e-12 || d < -1e-12 {
				t.Fatalf("resumed waveform deviates %g at t=%g", d, ref.times[i])
			}
		}
	}
	if err := shutdownB(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Server A's journal holds the deck only for a job that has finished:
	// restarted on it, the server holds nothing.
	_, baseC, shutdownC := testServer(t, cfg(dirA))
	defer shutdownC(context.Background())
	if code, body := do(t, "POST", baseC+"/v1/jobs", specBody(t, serve.JobSpec{Deck: hash})); code != http.StatusNotFound {
		t.Fatalf("a job by hash after a restart without the deck: %d %s, want 404", code, body)
	}
	if code, _ := do(t, "GET", baseC+"/v1/decks/"+hash, ""); code != http.StatusNotFound {
		t.Fatalf("GET after a restart without the deck: %d, want 404", code)
	}
}
