package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/matex-sim/matex/internal/job"
	"github.com/matex-sim/matex/internal/serve"
)

// faultDeck is a two-node RC deck whose tr run takes 100 steps: with
// lifeCheckpointEvery it journals three checkpoints, each after the batch of
// samples it covers.
const faultDeck = `* journal fault life
R1 a b 1k
R2 b 0 2k
C1 b 0 1p
V1 a 0 1.8
i1 b 0 PULSE(0 1m 1n 0.1n 0.1n 2n 0)
.tran 100p 10n
.print tran v(b)
.end
`

const lifeCheckpointEvery = 30

// lifeOp is one disk operation of a job's life and the class of what it
// serves: the record kind for a write on the append handle and for the
// Sync that follows it; "close" for the append handle's shutdown Sync and
// Close; "start" for what serve.New does on disk — compaction's temp file,
// the rename, the directory sync and the append handle's open — with the
// index of that start and of the operation within it.
type lifeOp struct {
	op, file, class string
	start, inStart  int
}

func (o lifeOp) String() string {
	return fmt.Sprintf("%s-%s-%s", o.class, o.op, o.file)
}

// classifier turns the seam's view of an operation into a lifeOp; it is
// fed every operation under dir in order.
type classifier struct {
	dir     string
	pending string // kind of the last write on the append handle not yet synced
	starts  int
	inStart int
}

func (c *classifier) classify(op serve.DiskOp) lifeOp {
	file, err := filepath.Rel(c.dir, op.Path)
	if err != nil {
		panic(err)
	}
	o := lifeOp{op: op.Op, file: file}
	switch {
	case file == "journal.jsonl.tmp" && op.Op == "open":
		c.starts++
		c.inStart = 0
		fallthrough
	case file != "journal.jsonl" || op.Op == "rename" || op.Op == "open":
		o.class, o.start, o.inStart = "start", c.starts-1, c.inStart
		c.inStart++
	case op.Op == "write":
		c.pending = serve.RecordKind(op.Data)
		o.class = c.pending
	case op.Op == "sync" && c.pending != "":
		o.class, c.pending = c.pending, ""
	default:
		o.class = "close"
	}
	return o
}

// setLifeFault puts fault under every disk operation under dir, classified,
// until the returned function is called.
func setLifeFault(dir string, fault func(int, lifeOp) error) (clear func()) {
	var mu sync.Mutex
	c := &classifier{dir: dir}
	n := 0
	return serve.SetDiskFault(func(op serve.DiskOp) error {
		if !strings.HasPrefix(op.Path, dir) {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		n++
		return fault(n-1, c.classify(op))
	})
}

// lifeServer is a durable server behind a test listener.
type lifeServer struct {
	srv *serve.Server
	ts  *httptest.Server
}

func startLifeServer(dir string) (*lifeServer, error) {
	s, err := serve.New(serve.Config{Workers: 1, QueueDepth: 4, StateDir: dir, CheckpointEvery: lifeCheckpointEvery})
	if err != nil {
		return nil, err
	}
	return &lifeServer{srv: s, ts: httptest.NewServer(s.Handler())}, nil
}

func (l *lifeServer) stop(t *testing.T) {
	t.Helper()
	l.ts.Close()
	if err := l.srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// life is what one run of a job's life saw. The life: a server starts on
// an empty state dir, a deck is PUT, a job on it is submitted inline and
// streamed — its samples and checkpoints journaled as it runs, its done
// record after — the server shuts down, and a restart compacts the journal
// and resumes whatever it holds unfinished. A failed start ends the life.
type life struct {
	journals    [2][]byte // the journal as each start found it
	failedStart int       // index of the start that failed, -1 if none
	afterFailed []byte    // the journal as the failed start left it
	put, post   int       // statuses of the PUT and of the inline submit
	byHash      int       // after a refused PUT: status of a submit naming the deck by hash
	refused     serve.StatsReply
	stream      *streamedJob
	resumed     uint64
	restream    *streamedJob // the resumed job's stream on the restart
}

func runLife(t *testing.T, dir string) life {
	t.Helper()
	l := life{failedStart: -1}
	start := func(i int) *lifeServer {
		l.journals[i], _ = os.ReadFile(journalPath(dir))
		s, err := startLifeServer(dir)
		if err != nil {
			l.failedStart = i
			l.afterFailed, _ = os.ReadFile(journalPath(dir))
		}
		return s
	}
	a := start(0)
	if a == nil {
		return l
	}
	hash := job.DeckHash(faultDeck)
	l.put, _ = do(t, http.MethodPut, a.ts.URL+"/v1/decks/"+hash, faultDeck)
	if l.put == http.StatusCreated {
		resp := postJSON(t, a.ts.URL+"/v1/simulate", serve.JobSpec{Netlist: faultDeck, Method: "tr"})
		l.post = resp.StatusCode
		if resp.StatusCode == http.StatusOK {
			l.stream = readStream(t, bufio.NewScanner(resp.Body))
		} else {
			l.refused = getStats(t, a.ts.URL)
		}
		resp.Body.Close()
	} else {
		l.byHash, _ = do(t, http.MethodPost, a.ts.URL+"/v1/jobs", specBody(t, serve.JobSpec{Deck: hash}))
	}
	a.stop(t)

	b := start(1)
	if b == nil {
		return l
	}
	defer b.stop(t)
	if l.resumed = getStats(t, b.ts.URL).Resumed; l.resumed > 0 {
		l.restream = streamNDJSON(t, b.ts.URL+"/v1/jobs/job-1/stream")
	}
	return l
}

// sameWaveform fails the test unless got streamed exactly want's samples.
func sameWaveform(t *testing.T, what string, got, want *streamedJob) {
	t.Helper()
	if got == nil || got.state != serve.JobDone {
		t.Fatalf("%s: not a completed stream: %+v", what, got)
	}
	if !reflect.DeepEqual(got.times, want.times) || !reflect.DeepEqual(got.rows, want.rows) {
		t.Fatalf("%s: %d samples differ from the clean life's %d", what, len(got.times), len(want.times))
	}
}

// recordOps runs f with every disk operation under dir recorded, and
// returns those of the given classes (all when none is given) that ran
// before f returned.
func recordOps(dir string, f func(), classes ...string) []lifeOp {
	var (
		mu  sync.Mutex
		ops []lifeOp
	)
	clear := setLifeFault(dir, func(_ int, o lifeOp) error {
		mu.Lock()
		defer mu.Unlock()
		if len(classes) == 0 || slices.Contains(classes, o.class) {
			ops = append(ops, o)
		}
		return nil
	})
	f()
	clear()
	mu.Lock()
	defer mu.Unlock()
	return slices.Clip(ops)
}

// failOp runs f with the k-th disk operation under dir failed in its place,
// and fails the test unless that operation is want: the life is
// deterministic up to its first fault.
func failOp(t *testing.T, dir string, k int, want lifeOp, f func()) {
	t.Helper()
	var got *lifeOp
	clear := setLifeFault(dir, func(i int, o lifeOp) error {
		if i != k {
			return nil
		}
		got = &o
		return fmt.Errorf("injected fault: %s %s", o.op, o.file)
	})
	defer clear()
	f()
	if got == nil || *got != want {
		t.Fatalf("operation %d was %v, want %v", k, got, want)
	}
}

// TestEveryJournalOperationFailureSurfaces records every disk operation of
// one job's life and then re-runs the life once per operation, failing that
// one. Each failure has the outcome its record defines:
//
//   - deck, spec: the PUT or the submit is refused with a 500, and nothing
//     is queued or held;
//   - samples, checkpoint: the job fails with the journal error, and the
//     restart does not resurrect it;
//   - done: the outcome is published, and when the record never reached
//     the file the restart re-runs the job to the same samples — the cost
//     of not failing a finished job over its done record;
//   - close: shutdown completes, and every record that matters was synced;
//   - start (compaction, the rename, the directory sync, the append handle's
//     open): serve.New returns an error, the journal is untouched when the
//     fault came before the rename, and the next clean start restores what
//     it holds.
//
// The clean life's restart has nothing to rewrite; the restart after a lost
// done record has the whole job to, and each of its operations is failed
// in turn as well.
func TestEveryJournalOperationFailureSurfaces(t *testing.T) {
	leak := guardGoroutines(t)
	defer leak()

	cleanDir := t.TempDir()
	var clean life
	ops := recordOps(cleanDir, func() { clean = runLife(t, cleanDir) })
	if clean.failedStart >= 0 || clean.put != http.StatusCreated || clean.post != http.StatusOK || clean.resumed != 0 {
		t.Fatalf("clean life: %+v", clean)
	}
	if clean.stream.state != serve.JobDone {
		t.Fatalf("clean life's job ended %s (%s)", clean.stream.state, clean.stream.tailErr)
	}
	classes := map[string]int{}
	for _, o := range ops {
		classes[o.class]++
	}
	for class, n := range map[string]int{"deck": 2, "spec": 2, "samples": 3, "checkpoint": 6, "done": 2, "close": 4} {
		if classes[class] != n {
			t.Fatalf("clean life has %d %s operations, want %d: %v", classes[class], class, n, ops)
		}
	}

	for k, want := range ops {
		t.Run(fmt.Sprintf("%02d-%v", k, want), func(t *testing.T) {
			dir := t.TempDir()
			var l life
			failOp(t, dir, k, want, func() { l = runLife(t, dir) })
			if want.class != "start" && l.failedStart >= 0 {
				t.Fatalf("start %d failed after a %s fault", l.failedStart, want.class)
			}
			switch want.class {
			case "deck":
				if l.put != http.StatusInternalServerError || l.byHash != http.StatusNotFound {
					t.Fatalf("PUT answered %d and a submit by its hash %d, want 500 and 404", l.put, l.byHash)
				}
			case "spec":
				if l.post != http.StatusInternalServerError || l.refused.Accepted != 0 || l.refused.QueueDepth != 0 {
					t.Fatalf("submit answered %d with %d accepted, %d queued; want 500 and nothing queued",
						l.post, l.refused.Accepted, l.refused.QueueDepth)
				}
			case "samples", "checkpoint":
				if l.stream.state != serve.JobFailed || !strings.Contains(l.stream.tailErr, serve.ErrJournal.Error()) ||
					!strings.Contains(l.stream.tailErr, "injected fault") {
					t.Fatalf("job ended %s (%q), want failed with the journal error", l.stream.state, l.stream.tailErr)
				}
				if l.resumed != 0 {
					t.Fatalf("the failed job was resurrected (%d resumed)", l.resumed)
				}
			case "done":
				sameWaveform(t, "published stream", l.stream, clean.stream)
				switch want.op {
				case "write":
					if l.resumed != 1 {
						t.Fatalf("restart resumed %d jobs, want the one whose done record was lost", l.resumed)
					}
					sameWaveform(t, "re-run", l.restream, clean.stream)
					failEveryRestartOperation(t, l.journals[1], clean.stream)
				case "sync":
					// The record reached the file; only a power loss could
					// take it back.
					if l.resumed != 0 {
						t.Fatalf("restart resumed %d jobs past a written done record", l.resumed)
					}
				}
			case "close":
				sameWaveform(t, "stream", l.stream, clean.stream)
				if l.resumed != 0 {
					t.Fatalf("restart resumed %d jobs", l.resumed)
				}
			case "start":
				if l.failedStart != want.start {
					t.Fatalf("start %d failed, want start %d", l.failedStart, want.start)
				}
				checkFailedStart(t, want, ops, l.journals[want.start], l.afterFailed)
				s, err := startLifeServer(dir)
				if err != nil {
					t.Fatalf("the next clean start: %v", err)
				}
				defer s.stop(t)
				if st := getStats(t, s.ts.URL); st.Resumed != 0 || st.Accepted != 0 {
					t.Fatalf("the next clean start restored %d jobs (%d resumed), want none", st.Accepted, st.Resumed)
				}
			}
		})
	}
}

// checkFailedStart holds a start failed at op to its journal: untouched when
// the fault came at or before the rename, which is what commits a
// compaction.
func checkFailedStart(t *testing.T, op lifeOp, ops []lifeOp, before, after []byte) {
	t.Helper()
	for _, o := range ops {
		if o.start == op.start && o.class == "start" && o.op == "rename" && op.inStart <= o.inStart {
			if !bytes.Equal(before, after) {
				t.Fatalf("a fault before the rename changed the journal (%d bytes, was %d)", len(after), len(before))
			}
			return
		}
	}
}

// failEveryRestartOperation restarts on journal — a job's life whose done
// record was lost, so the restart compacts the whole job and re-runs it —
// once per disk operation of serve.New, failing that one: New returns an
// error, and the next clean start re-runs the job to want's samples.
func failEveryRestartOperation(t *testing.T, journal []byte, want *streamedJob) {
	onJournal := func(t *testing.T) string {
		dir := t.TempDir()
		if err := os.WriteFile(journalPath(dir), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	dir := onJournal(t)
	var s *lifeServer
	var err error
	// The resumed job appends as soon as New returns; New's own operations
	// all come before.
	ops := recordOps(dir, func() { s, err = startLifeServer(dir) }, "start")
	if err != nil {
		t.Fatal(err)
	}
	s.stop(t)
	if n := len(ops); n < 9 || ops[1].op != "write" {
		t.Fatalf("a restart on a live job did %d operations, beginning %v; want the job rewritten", n, ops)
	}
	for k, op := range ops {
		t.Run(fmt.Sprintf("restart-%02d-%v", k, op), func(t *testing.T) {
			dir := onJournal(t)
			failOp(t, dir, k, op, func() { s, err = startLifeServer(dir) })
			if err == nil {
				s.stop(t)
				t.Fatal("serve.New succeeded past a failed operation")
			}
			after, _ := os.ReadFile(journalPath(dir))
			checkFailedStart(t, op, ops, journal, after)
			next, err := startLifeServer(dir)
			if err != nil {
				t.Fatalf("the next clean start: %v", err)
			}
			defer next.stop(t)
			if st := getStats(t, next.ts.URL); st.Resumed != 1 {
				t.Fatalf("the next clean start resumed %d jobs, want 1", st.Resumed)
			}
			sameWaveform(t, "re-run", streamNDJSON(t, next.ts.URL+"/v1/jobs/job-1/stream"), want)
		})
	}
}
