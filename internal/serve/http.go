package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"github.com/matex-sim/matex/internal/job"
	"github.com/matex-sim/matex/internal/memo"
	"github.com/matex-sim/matex/internal/sparse"
)

// Handler returns the service's HTTP API:
//
//	GET    /healthz              liveness
//	GET    /readyz               readiness; 503 once draining begins
//	GET    /stats                queue, cache, deck-store and solver-work counters
//	POST   /v1/jobs              submit a JobSpec, returns the job Status
//	GET    /v1/jobs              list job statuses
//	GET    /v1/jobs/{id}         one job's Status
//	DELETE /v1/jobs/{id}         cancel
//	GET    /v1/jobs/{id}/stream  waveform stream (NDJSON; ?sse=1 for SSE)
//	POST   /v1/simulate          submit and stream in one request
//	POST   /v1/sweep             submit a sweep (a JobSpec with variants);
//	                             /sweep is an alias
//	PUT    /v1/decks/{hash}      store a netlist (the body) under its SHA-256
//	GET    /v1/decks/{hash}      whether a deck is held: {hash, unknowns,
//	                             inputs}, or 404
//
// A spec names its deck inline ("netlist"), as a pgbench case ("case") or by
// hash ("deck"): a deck the server holds from an earlier inline job or a PUT,
// which a client posting many jobs on one deck sends once. A hash the server
// does not hold is a 404 (ErrUnknownDeck), never a guess; a D-MATEX
// coordinator answers it with one PUT and posts again.
//
// A sweep job's stream interleaves every variant's samples; each sample
// chunk carries the variant name and a per-variant sequence number
// ("variant"/"vseq") on top of the global "seq" resume cursor, so one
// connection demultiplexes into N waveforms.
//
// Streams are resumable: every sample carries a monotonic 1-based sequence
// number (the NDJSON "seq" field; the SSE `id:` line). A dropped NDJSON
// consumer re-requests with ?from_seq=N to skip the N samples it already
// has; an SSE client's automatic reconnect sends Last-Event-ID and replays
// from there — against a journal-backed server this works across a crash
// and restart too, because restored jobs keep their sample buffers.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /sweep", s.handleSweep)
	mux.HandleFunc("PUT /v1/decks/{hash}", s.handlePutDeck)
	mux.HandleFunc("GET /v1/decks/{hash}", s.handleGetDeck)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v) // headers already committed: an encode failure means a dead client
}

type errorReply struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorReply{Error: err.Error()})
}

// submitCode maps a Submit error to its HTTP status.
func submitCode(err error) int {
	switch {
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrUnknownDeck):
		return http.StatusNotFound
	case errors.Is(err, ErrJournal):
		return http.StatusInternalServerError // server's disk, not the client's spec
	default:
		return http.StatusBadRequest
	}
}

// writeSubmitError maps a Submit failure to its status; 429 additionally
// carries a Retry-After estimate so well-behaved clients back off for about
// as long as the queue actually needs to open a slot.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	code := submitCode(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
	}
	writeError(w, code, err)
}

// retryAfter estimates the seconds until a queue slot frees: the backlog
// (queued + running + the rejected request) times the observed mean job
// wall time, divided across the workers. With no completed runs yet there
// is nothing to extrapolate from, so answer 1s; the clamp keeps a pile-up
// of hour-long jobs from telling clients to go away for a day.
func (s *Server) retryAfter() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.runs == 0 {
		return 1
	}
	mean := float64(s.runNanos) / float64(s.runs) / float64(time.Second)
	backlog := float64(len(s.queue) + s.inFlight + 1)
	secs := int(math.Ceil(backlog * mean / float64(s.cfg.Workers)))
	if secs < 1 {
		secs = 1
	}
	if secs > 3600 {
		secs = 3600
	}
	return secs
}

// decodeSpec reads a submission: the body whole, into one buffer sized by
// its declared length — a deck is most of a body, and a streaming decoder
// would copy it through buffers doubling to twice its size — then the spec,
// every field of which must be one a spec has (parseSpec).
func decodeSpec(w http.ResponseWriter, r *http.Request) (JobSpec, bool) {
	var spec JobSpec
	body, err := readBody(w, r)
	if err == nil {
		spec, err = parseSpec(body)
	}
	if err != nil {
		writeError(w, bodyCode(err), fmt.Errorf("decoding job spec: %w", err))
		return spec, false
	}
	return spec, true
}

// parseSpec decodes a spec body as json.Unmarshal followed by knownFields
// would, and in the common case without running the JSON scanner over the
// inline deck: the top-level "netlist" string is unquoted in one pass
// (unquoteNetlist) and json.Unmarshal reads the rest of the body, with that
// value blanked. Whatever that path might read differently from the whole
// body's decode — an escape other than the eight simple ones, a byte
// encoding/json would refuse or replace, a second member whose name could
// also be "netlist", a value that is not a string, any error — goes to the
// whole-body decode, so every accepted spec, every refusal and its text are
// that decode's.
func parseSpec(body []byte) (JobSpec, error) {
	var spec JobSpec
	if from, to, ok := netlistValue(body); ok {
		if text, ok := unquoteNetlist(body[from:to]); ok {
			rest := make([]byte, 0, len(body)-(to-from))
			rest = append(append(rest, body[:from]...), body[to:]...)
			if json.Unmarshal(rest, &spec) == nil && knownFields(rest) == nil {
				spec.Netlist = text
				return spec, nil
			}
			spec = JobSpec{}
		}
	}
	err := json.Unmarshal(body, &spec)
	if err == nil {
		err = knownFields(body)
	}
	return spec, err
}

// bodyCode maps a request-body failure to its status: 413 past
// maxBodyBytes, 400 otherwise.
func bodyCode(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// readBody reads a request body of at most maxBodyBytes. A declared length
// sizes the buffer up to the MiB or so a deck body takes, so such a body is
// read into one allocation, and a client cannot make the server allocate
// much that it does not send.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > maxBodyBytes {
		return nil, &http.MaxBytesError{Limit: maxBodyBytes}
	}
	var body bytes.Buffer
	body.Grow(int(min(max(r.ContentLength, 0), 1<<20)) + bytes.MinRead)
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	return body.Bytes(), err
}

// specFields are the JSON names of a spec's fields, lower-cased: encoding/json
// matches a body's names to them in any case.
var specFields = func() map[string]bool {
	t := reflect.TypeOf(JobSpec{})
	names := make(map[string]bool, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		names[strings.ToLower(name)] = true
	}
	return names
}()

// knownFields refuses a body that names a field a spec does not have, in
// json.Decoder.DisallowUnknownFields' words. The body is a JSON value
// json.Unmarshal has read into a spec, so an object.
func knownFields(body []byte) error {
	return memberNames(body, func(open, close int) error {
		var field string
		if err := json.Unmarshal(body[open:close+1], &field); err != nil {
			return err
		}
		if !specFields[strings.ToLower(field)] {
			return fmt.Errorf("json: unknown field %q", field)
		}
		return nil
	})
}

// errUnusual stops a walk over a body the one-pass decode leaves to
// encoding/json.
var errUnusual = errors.New("serve: not a plain spec body")

// memberNames calls name with the offsets of the quotes around each member
// name of the body's top-level object: the strings that open it or follow a
// comma at its own depth, found without a pass of the JSON scanner over the
// values, the deck among them. It returns name's first error, and
// errUnusual if the body ends inside a string.
func memberNames(body []byte, name func(open, close int) error) error {
	depth, isName := 0, false
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '{', '[':
			depth++
			isName = depth == 1
		case '}', ']':
			depth--
		case ',':
			isName = depth == 1
		case '"':
			j := stringEnd(body, i)
			if j < 0 {
				return errUnusual
			}
			if isName {
				if err := name(i, j); err != nil {
					return err
				}
				isName = false
			}
			i = j
		}
	}
	return nil
}

// stringEnd returns the offset of the quote that closes the JSON string
// opening at body[open], or -1 if the body ends first: the first quote after
// it that an even run of backslashes precedes.
func stringEnd(body []byte, open int) int {
	for j := open + 1; ; j++ {
		k := bytes.IndexByte(body[j:], '"')
		if k < 0 {
			return -1
		}
		j += k
		b := j - 1
		for body[b] == '\\' {
			b--
		}
		if (j-1-b)%2 == 0 {
			return j
		}
	}
}

// netlistValue returns the offsets of the characters of the body's
// top-level "netlist" string, between its quotes. ok is false unless exactly
// one member name could be "netlist" to encoding/json — which matches names
// in any case, Unicode folding included — that name is written exactly so,
// no member name holds an escape, and the value is a string.
func netlistValue(body []byte) (from, to int, ok bool) {
	from = -1
	err := memberNames(body, func(open, close int) error {
		name := body[open+1 : close]
		switch {
		case bytes.IndexByte(name, '\\') >= 0:
			return errUnusual
		case !bytes.EqualFold(name, []byte("netlist")):
			return nil
		case from >= 0 || string(name) != "netlist":
			return errUnusual
		}
		k := skipSpace(body, close+1)
		if k == len(body) || body[k] != ':' {
			return errUnusual
		}
		k = skipSpace(body, k+1)
		if k == len(body) || body[k] != '"' {
			return errUnusual
		}
		if to = stringEnd(body, k); to < 0 {
			return errUnusual
		}
		from = k + 1
		return nil
	})
	return from, to, err == nil && from >= 0
}

// skipSpace returns the offset of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(body []byte, i int) int {
	for i < len(body) && (body[i] == ' ' || body[i] == '\t' || body[i] == '\n' || body[i] == '\r') {
		i++
	}
	return i
}

// unescape maps the character after a backslash to what it stands for, for
// the eight escapes that stand for one byte; 0 for the rest.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// unquoteNetlist decodes the characters of a JSON string — a deck's: lines
// of printable text, each ending in \n — copying the runs between escapes.
// ok is false on what encoding/json would refuse or read otherwise: a
// control character, a \u or unknown escape, invalid UTF-8.
func unquoteNetlist(s []byte) (string, bool) {
	for _, c := range s {
		if c < 0x20 {
			return "", false
		}
	}
	var b strings.Builder
	b.Grow(len(s))
	for {
		k := bytes.IndexByte(s, '\\')
		if k < 0 {
			b.Write(s)
			break
		}
		if k+1 == len(s) || unescape[s[k+1]] == 0 {
			return "", false
		}
		b.Write(s[:k])
		b.WriteByte(unescape[s[k+1]])
		s = s[k+2:]
	}
	text := b.String()
	return text, utf8.ValidString(text)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":         true,
		"uptime_sec": time.Since(s.start).Seconds(),
	})
}

// handleReadyz is the load-balancer readiness probe: 200 while accepting
// jobs, 503 from the moment BeginDrain/Shutdown starts — the instance keeps
// serving in-flight streams through the drain window, but new traffic
// should go elsewhere. (Liveness stays /healthz: a draining process is
// still alive.)
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "draining": true})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// StatsReply is the /stats payload.
type StatsReply struct {
	UptimeSec  float64 `json:"uptime_sec"`
	Workers    int     `json:"workers"`
	QueueDepth int     `json:"queue_depth"`
	QueueCap   int     `json:"queue_cap"`
	InFlight   int     `json:"in_flight"`
	Accepted   uint64  `json:"jobs_accepted"`
	Completed  uint64  `json:"jobs_completed"`
	Failed     uint64  `json:"jobs_failed"`
	Canceled   uint64  `json:"jobs_canceled"`
	// Resumed counts jobs re-enqueued from the durable journal at startup
	// (always 0 without -state-dir).
	Resumed uint64 `json:"jobs_resumed"`
	// Totals folds the solver work counters of completed jobs; CacheHits
	// counts factorization acquisitions served from the shared cache, so
	// any value above the cold-start misses demonstrates cross-job reuse.
	Totals totals `json:"totals"`
	// Cache is the shared factorization cache's own view (includes the
	// symbolic pattern tier).
	Cache sparse.CacheStats `json:"cache"`
	// DeckStore is the deck store's view: one miss per deck parsed and
	// stamped, one hit per job (or repeated PUT) that found its deck already
	// there. DeckPuts counts the PUT /v1/decks/{hash} answered 2xx, and
	// InlineDecks the accepted submissions that carried their netlist
	// inline rather than by hash.
	DeckStore   memo.Stats `json:"deck_store"`
	DeckPuts    uint64     `json:"deck_puts"`
	InlineDecks uint64     `json:"inline_decks"`
}

func (s *Server) statsReply() StatsReply {
	s.mu.Lock()
	rep := StatsReply{
		UptimeSec:   time.Since(s.start).Seconds(),
		Workers:     s.cfg.Workers,
		QueueDepth:  len(s.queue),
		QueueCap:    cap(s.queue),
		InFlight:    s.inFlight,
		Accepted:    s.accepted,
		Completed:   s.completed,
		Failed:      s.failed,
		Canceled:    s.canceled,
		Resumed:     s.resumed,
		Totals:      s.agg,
		DeckPuts:    s.deckPuts,
		InlineDecks: s.inline,
	}
	// A finishing job folds its histogram into s.agg in place: the reply
	// owns a copy, since it is encoded after the lock is released.
	rep.Totals.Dims = slices.Clone(s.agg.Dims)
	rep.Totals.KrylovSpots = s.agg.Spots()
	s.mu.Unlock()
	rep.Cache = s.cache.Stats()
	rep.DeckStore = s.decks.Stats()
	return rep
}

// handleSweep submits a sweep job: a JobSpec whose variants list is
// required here (POST /v1/jobs accepts sweep specs too; this endpoint
// just refuses to silently run a plain job when the caller meant N).
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) { s.submit(w, r, true) }

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsReply())
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) { s.submit(w, r, false) }

func (s *Server) submit(w http.ResponseWriter, r *http.Request, sweep bool) {
	spec, ok := decodeSpec(w, r)
	if !ok {
		return
	}
	if sweep && len(spec.Variants) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("sweep submission needs a non-empty variants list"))
		return
	}
	job, err := s.Submit(spec)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	job, ok := s.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return nil, false
	}
	return job, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, job.Status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.job(w, r); ok {
		s.streamJob(w, r, job)
	}
}

// DeckReply is a held deck, as PUT and GET /v1/decks/{hash} answer: its
// hash and the size of its stamped system.
type DeckReply struct {
	Hash     string `json:"hash"`
	Unknowns int    `json:"unknowns"`
	Inputs   int    `json:"inputs"`
}

func deckReply(hash string, d *job.Deck) DeckReply {
	sys := d.System()
	return DeckReply{Hash: hash, Unknowns: sys.N, Inputs: len(sys.Inputs)}
}

// handlePutDeck stores a netlist under its content hash, for jobs that then
// name it by hash: the body is the text, at most maxBodyBytes (413), which
// must hash to {hash} (ErrDeckMismatch, 400) and parse (400 naming the
// line). The first PUT of a deck parses and stamps it into the deck store
// and, on a durable server, journals it before answering 201; a deck the
// server already holds answers 200, parsed and journaled no second time.
func (s *Server) handlePutDeck(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if err := job.CheckDeckHash(hash); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, bodyCode(err), fmt.Errorf("reading deck: %w", err))
		return
	}
	text := string(body)
	if got := job.DeckHash(text); got != hash {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: the body hashes to %s", ErrDeckMismatch, got))
		return
	}
	d, hit, err := s.learnDeck(hash, text)
	if err != nil {
		writeError(w, submitCode(err), err)
		return
	}
	s.mu.Lock()
	s.deckPuts++
	s.mu.Unlock()
	code := http.StatusCreated
	if hit {
		code = http.StatusOK
	}
	writeJSON(w, code, deckReply(hash, d))
}

// handleGetDeck answers whether the server holds a deck, without counting a
// deck-store hit.
func (s *Server) handleGetDeck(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if err := job.CheckDeckHash(hash); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	d, err := s.heldDeck(hash, s.decks.Peek)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, deckReply(hash, d))
}

// handleSimulate is submit-and-stream in one request: the response starts
// with the stream header as soon as the job is queued and follows the
// waveform live — the curl-friendly entry point.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	spec, ok := decodeSpec(w, r)
	if !ok {
		return
	}
	job, err := s.Submit(spec)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	s.streamJob(w, r, job)
}

// streamHeader is the first chunk of every stream: the job identity and
// the probe order of the sample rows.
type streamHeader struct {
	ID     string   `json:"id"`
	Probes []string `json:"probes"`
}

// streamTail is the last chunk: terminal state, error if any, and the
// solver work stats for done jobs.
type streamTail struct {
	Done    bool     `json:"done"`
	State   JobState `json:"state"`
	Samples int      `json:"samples"`
	Error   string   `json:"error,omitempty"`
	Stats   any      `json:"stats,omitempty"`
	// Sweep carries the sharing report on sweep-job streams.
	Sweep any `json:"sweep,omitempty"`
}

// streamSample is one streamed sample chunk: the Sample plus its monotonic
// 1-based sequence number — the resume cursor (?from_seq= / Last-Event-ID).
type streamSample struct {
	Seq int `json:"seq"`
	Sample
}

// streamCursor reads the client's resume position: the number of samples it
// already holds. ?from_seq=N works on both encodings; an SSE reconnect's
// Last-Event-ID header (set automatically by EventSource from the `id:`
// lines) wins when larger. Malformed values fall back to a full replay —
// the always-correct answer, just a wasteful one.
func streamCursor(r *http.Request, sse bool) int {
	cursor := 0
	if v := r.URL.Query().Get("from_seq"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > cursor {
			cursor = n
		}
	}
	if sse {
		if v := r.Header.Get("Last-Event-ID"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > cursor {
				cursor = n
			}
		}
	}
	return cursor
}

// streamJob replays the job's samples from the client's cursor (default:
// the start) and follows them live, one JSON object per chunk: NDJSON by
// default, SSE `data:` events with ?sse=1 (or an Accept: text/event-stream
// header). Sample chunks carry their sequence number (NDJSON "seq" field,
// SSE `id:` line), so a disconnected client resumes exactly where it left
// off with no gaps and no duplicates. The header and the tail are flushed
// as written, and the samples once per batch the job hands over: all of a
// finished job's in one flush, a running job's as they are published, so a
// slow consumer sees the waveform grow while the integrator is still
// inside the run.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, job *Job) {
	sse := r.URL.Query().Get("sse") == "1" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	// emit writes one chunk; seq > 0 marks a sample chunk and becomes the
	// SSE event ID (header and tail chunks carry none, so they never move
	// a reconnecting client's cursor).
	emit := func(seq int, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if sse {
			if seq > 0 {
				_, err = fmt.Fprintf(w, "id: %d\ndata: %s\n\n", seq, data)
			} else {
				_, err = fmt.Fprintf(w, "data: %s\n\n", data)
			}
		} else {
			_, err = fmt.Fprintf(w, "%s\n", data)
		}
		return err == nil // else the client went away
	}

	st := job.Status()
	if !emit(0, streamHeader{ID: job.ID, Probes: st.Probes}) {
		return
	}
	flush()
	i := streamCursor(r, sse)
	for {
		batch, state, ch := job.snapshotFrom(i)
		for k, smp := range batch {
			if !emit(i+k+1, streamSample{Seq: i + k + 1, Sample: smp}) {
				return
			}
		}
		if len(batch) > 0 {
			flush()
		}
		i += len(batch)
		if state.Terminal() {
			break
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
	final := job.Status()
	tail := streamTail{Done: true, State: final.State, Samples: final.Samples, Error: final.Error}
	if final.Stats != nil {
		tail.Stats = final.Stats
	}
	if final.Sweep != nil {
		tail.Sweep = final.Sweep
	}
	if emit(0, tail) {
		flush()
	}
}
