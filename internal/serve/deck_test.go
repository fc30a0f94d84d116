package serve_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/serve"
	"github.com/matex-sim/matex/internal/sweep"
)

// systemFingerprint digests everything a job could write through a shared
// deck: both matrices, every input's stamp and its waveform.
func systemFingerprint(sys *circuit.System) [sha256.Size]byte {
	h := sha256.New()
	ints := func(xs []int) {
		for _, x := range xs {
			binary.Write(h, binary.LittleEndian, int64(x))
		}
	}
	floats := func(xs []float64) {
		for _, x := range xs {
			binary.Write(h, binary.LittleEndian, math.Float64bits(x))
		}
	}
	for _, m := range []*struct {
		colptr, rowidx []int
		values         []float64
	}{
		{sys.C.Colptr, sys.C.Rowidx, sys.C.Values},
		{sys.G.Colptr, sys.G.Rowidx, sys.G.Values},
	} {
		ints(m.colptr)
		ints(m.rowidx)
		floats(m.values)
	}
	for _, in := range sys.Inputs {
		ints(in.Rows)
		floats(in.Coefs)
		fmt.Fprintf(h, "%s %v %#v\n", in.Name, in.Supply, in.Wave)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// readAnyStream follows the stream of a job of any kind to its done tail and
// returns the waveform — times and rows, keyed by variant for a sweep — in a
// form reflect.DeepEqual compares bit for bit. A job that does not end done
// fails the test.
func readAnyStream(t *testing.T, url string, spec serve.JobSpec) [2]any {
	t.Helper()
	if len(spec.Variants) > 0 {
		got := readSweepStream(t, url)
		if got.state != serve.JobDone {
			t.Fatalf("sweep ended %s (%s)", got.state, got.tailErr)
		}
		return [2]any{got.times, got.rows}
	}
	got := streamNDJSON(t, url)
	if got.state != serve.JobDone {
		t.Fatalf("job ended %s (%s)", got.state, got.tailErr)
	}
	return [2]any{got.times, got.rows}
}

// TestJobsOfEveryKindShareOneDeckUntouched runs a plain job, a sweep and a
// distributed job at the same time on one deck-store entry: each streams
// exactly what it streams alone, and the shared system's matrices and
// inputs come out bit for bit as they were stamped. Under -race this is
// also the proof that nothing writes through the shared system.
func TestJobsOfEveryKindShareOneDeckUntouched(t *testing.T) {
	deckText := testDeckCNode(t, 1, 0) // full-size ibmpg1t: jobs long enough to overlap
	specs := []serve.JobSpec{
		{Netlist: deckText},
		{Netlist: deckText, Tol: 1e-8, Variants: []sweep.Variant{
			{Name: "typ"},
			{Name: "hot", SourceScales: map[string]float64{"Iload1": 1.5}},
			{Name: "fast", Scale: 1.2, SourceScales: map[string]float64{"Iload3": 0.8}},
		}},
		{Netlist: deckText, Distributed: true},
	}
	// submit queues a job; read follows its stream from the start. The jobs
	// of a round are all submitted before the first stream is read, so with
	// three workers they run side by side.
	submit := func(base string, spec serve.JobSpec) string {
		resp := postJSON(t, base+"/v1/jobs", spec)
		var st serve.Status
		if err := jsonDecode(resp, &st); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
		}
		return st.ID
	}
	read := func(base, id string, spec serve.JobSpec) [2]any {
		return readAnyStream(t, base+"/v1/jobs/"+id+"/stream", spec)
	}

	_, soloBase, soloShutdown := testServer(t, serve.Config{Workers: 1, QueueDepth: 4})
	solo := make([][2]any, len(specs))
	for i, spec := range specs {
		solo[i] = read(soloBase, submit(soloBase, spec), spec)
	}
	if err := soloShutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	srv, base, shutdown := testServer(t, serve.Config{Workers: 3, QueueDepth: 8})
	defer shutdown(context.Background())
	// One job first, so the entry exists and can be fingerprinted before the
	// concurrent round.
	if got := read(base, submit(base, specs[0]), specs[0]); !reflect.DeepEqual(got, solo[0]) {
		t.Fatal("the first job on the deck differs from its solo run")
	}
	sys := srv.DeckSystem(deckText)
	if sys == nil {
		t.Fatal("the deck is not resident after its first job")
	}
	before := systemFingerprint(sys)

	const rounds = 2
	ids := make([]string, rounds*len(specs))
	for k := range ids {
		ids[k] = submit(base, specs[k%len(specs)])
	}
	for k, id := range ids {
		if got := read(base, id, specs[k%len(specs)]); !reflect.DeepEqual(got, solo[k%len(specs)]) {
			t.Errorf("job %d (spec %d) run beside the others differs from its solo run", k, k%len(specs))
		}
	}
	if srv.DeckSystem(deckText) != sys {
		t.Error("the jobs did not all run on one store entry")
	}
	if systemFingerprint(sys) != before {
		t.Error("a job wrote through the shared system: C/G/Inputs fingerprint changed")
	}
	if ds := getStats(t, base).DeckStore; ds.Misses != 1 || ds.Hits != rounds*uint64(len(specs)) {
		t.Errorf("deck store %+v, want 1 miss and %d hits", ds, rounds*len(specs))
	}
}

// TestEvictionDoesNotDisturbARunningJob: with room for one deck, a second
// deck evicts the first while a job is still integrating on it; that job
// finishes with the waveform of the same spec run afterwards on a freshly
// parsed copy, and that next job on the evicted deck does parse it again.
func TestEvictionDoesNotDisturbARunningJob(t *testing.T) {
	deckA, deckB := testDeck(t), testDeckCNode(t, 0.25, 0.5e-12)
	slow := serve.JobSpec{Netlist: deckA, Method: "tr", Step: 5e-13} // 20k steps: still running when deck B has come and gone

	srv, base, shutdown := testServer(t, serve.Config{Workers: 2, QueueDepth: 4})
	defer shutdown(context.Background())
	srv.SetDeckCapacity(int64(len(deckA)))

	resp := postJSON(t, base+"/v1/jobs", slow)
	var st serve.Status
	if err := jsonDecode(resp, &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		job, _ := srv.Job(st.ID)
		if s := job.Status(); s.State == serve.JobRunning && s.Samples > 0 {
			break
		} else if s.State.Terminal() {
			t.Fatalf("job on deck A ended %s before deck B could evict it", s.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job on deck A never started")
		}
		time.Sleep(time.Millisecond)
	}
	other := streamNDJSON(t, base+"/v1/simulate", serve.JobSpec{Netlist: deckB})
	if other.state != serve.JobDone {
		t.Fatalf("job on deck B ended %s (%s)", other.state, other.tailErr)
	}
	if ds := getStats(t, base).DeckStore; ds.Evictions != 1 || ds.Entries != 1 || srv.DeckSystem(deckA) != nil {
		t.Fatalf("deck store %+v, want deck A evicted by deck B", ds)
	}
	if job, _ := srv.Job(st.ID); job.State() != serve.JobRunning {
		t.Fatalf("job on deck A is %s after the eviction: it has to outlast it for this test to mean anything", job.State())
	}

	got := streamNDJSON(t, base+"/v1/jobs/"+st.ID+"/stream")
	if got.state != serve.JobDone {
		t.Fatalf("job on the evicted deck ended %s (%s)", got.state, got.tailErr)
	}
	again := streamNDJSON(t, base+"/v1/simulate", slow)
	if len(got.times) < 20000 || !reflect.DeepEqual(again.times, got.times) || !reflect.DeepEqual(again.rows, got.rows) {
		t.Fatalf("the job whose deck was evicted mid-run streamed %d samples that differ from the same spec on the re-parsed deck", len(got.times))
	}
	if ds := getStats(t, base).DeckStore; ds.Misses != 3 || ds.Evictions != 2 {
		t.Fatalf("deck store %+v, want 3 misses (A, B, A again) and 2 evictions", ds)
	}
}

// TestOneCharacterEditIsAnotherDeck: two decks that differ in one character
// never share an entry — different hash, different system, different
// waveform.
func TestOneCharacterEditIsAnotherDeck(t *testing.T) {
	deckText := testDeck(t)
	edited := strings.Replace(deckText, " 0 1.8\n", " 0 1.9\n", 1)
	if edited == deckText || len(edited) != len(deckText) {
		t.Fatal("the deck has no 1.8 V supply line to edit")
	}
	srv, base, shutdown := testServer(t, serve.Config{Workers: 1, QueueDepth: 4})
	defer shutdown(context.Background())

	a := streamNDJSON(t, base+"/v1/simulate", serve.JobSpec{Netlist: deckText})
	b := streamNDJSON(t, base+"/v1/simulate", serve.JobSpec{Netlist: edited})
	a2 := streamNDJSON(t, base+"/v1/simulate", serve.JobSpec{Netlist: deckText})
	if a.state != serve.JobDone || b.state != serve.JobDone || a2.state != serve.JobDone {
		t.Fatalf("jobs ended %s, %s, %s", a.state, b.state, a2.state)
	}
	if !reflect.DeepEqual(a.rows, a2.rows) {
		t.Fatal("the same deck streamed two different waveforms")
	}
	if d := math.Abs(a.rows[0][0] - b.rows[0][0]); d < 0.05 {
		t.Fatalf("a 0.1 V supply edit moved the first sample by %g V: the edited deck ran on the original's system", d)
	}
	if srv.DeckSystem(deckText) == srv.DeckSystem(edited) {
		t.Fatal("two decks share one store entry")
	}
	if ds := getStats(t, base).DeckStore; ds.Misses != 2 || ds.Hits != 1 || ds.Entries != 2 || ds.Bytes != int64(2*len(deckText)) {
		t.Fatalf("deck store %+v, want 2 misses, 1 hit, 2 entries of %d bytes", ds, len(deckText))
	}
}
