package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"time"

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
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v) //matex:err-ok(headers already committed; an encode failure means a dead client)
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
// every field of which must be one a spec has.
func decodeSpec(w http.ResponseWriter, r *http.Request) (JobSpec, bool) {
	var spec JobSpec
	body, err := readBody(w, r)
	if err == nil {
		err = json.Unmarshal(body, &spec)
	}
	if err == nil {
		err = knownFields(body)
	}
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("decoding job spec: %w", err))
		return spec, false
	}
	return spec, true
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
// json.Unmarshal has read into a spec, so an object; its member names are
// the strings that open it or follow a comma at its own depth, found without
// a second pass of the JSON scanner over the deck inside it.
func knownFields(body []byte) error {
	depth, name := 0, false
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '{', '[':
			depth++
			name = depth == 1
		case '}', ']':
			depth--
		case ',':
			name = depth == 1
		case '"':
			j := i + 1
			for ; body[j] != '"'; j++ {
				if body[j] == '\\' {
					j++
				}
			}
			if name {
				var field string
				if err := json.Unmarshal(body[i:j+1], &field); err != nil {
					return err
				}
				if !specFields[strings.ToLower(field)] {
					return fmt.Errorf("json: unknown field %q", field)
				}
				name = false
			}
			i = j
		}
	}
	return nil
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
	// stamped, one hit per job that found its deck already there.
	DeckStore memo.Stats `json:"deck_store"`
}

func (s *Server) statsReply() StatsReply {
	s.mu.Lock()
	rep := StatsReply{
		UptimeSec:  time.Since(s.start).Seconds(),
		Workers:    s.cfg.Workers,
		QueueDepth: len(s.queue),
		QueueCap:   cap(s.queue),
		InFlight:   s.inFlight,
		Accepted:   s.accepted,
		Completed:  s.completed,
		Failed:     s.failed,
		Canceled:   s.canceled,
		Resumed:    s.resumed,
		Totals:     s.agg,
	}
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
// off with no gaps and no duplicates. Each chunk is flushed as written, so
// a slow consumer sees the waveform grow while the integrator is still
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
		if err != nil {
			return false // client went away
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	st := job.Status()
	if !emit(0, streamHeader{ID: job.ID, Probes: st.Probes}) {
		return
	}
	i := streamCursor(r, sse)
	for {
		batch, state, ch := job.snapshotFrom(i)
		for k, smp := range batch {
			if !emit(i+k+1, streamSample{Seq: i + k + 1, Sample: smp}) {
				return
			}
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
	emit(0, tail)
}
