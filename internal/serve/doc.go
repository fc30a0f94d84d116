// Package serve is the MATEX simulation job service: a long-running HTTP
// front end that accepts netlist-deck jobs (inline SPICE text or a named
// pgbench case), runs them through a bounded worker-pool queue with
// per-job contexts, and streams waveform samples incrementally (NDJSON or
// SSE) as the integrators advance — the serving layer the paper's
// "distributed framework" framing asks for on top of the compute stack.
//
// Every job on one process shares the content-addressed deck store
// (deckstore.go: one parse + stamp per deck, keyed by the SHA-256 of its
// text, bounded and LRU), the content-addressed factorization cache and the
// Krylov workspace arenas, so concurrent and repeated jobs against the same
// grid skip straight to the transient phase the way repeated dist.Run calls
// do. Distributed jobs additionally fan out through internal/dist
// (in-process pool, or matexd workers over TCP: one pool — one connection
// per worker — for the server's lifetime, the deck's circuit handed to it
// with each task).
//
// # Lifecycle of a job
//
// POST /v1/jobs (http.go) resolves the JobSpec's deck through the store and
// validates the rest of the spec against it up front (job.go), so malformed
// decks fail with a 400 before queueing; the job holds the shared, read-only
// stamped system, not the netlist text. The job then waits in a bounded
// queue until a worker goroutine (serve.go) picks it up, builds the one
// transient.Options every kind of job runs under, hands it to
// transient.Simulate, sweep.Run or dist.Run, and forwards every probe
// sample into the job's grow-only sample log as the engine delivers it — a
// distributed job's t = 0 row as soon as the scheduler's DC solve is done,
// a sweep's shared variants as their lanes pass each sample. Stream
// readers (GET /v1/jobs/{id}/stream) replay that log from any offset and
// then follow live appends, so late subscribers and reconnects see the
// identical sequence.
//
// # Sweep jobs
//
// A JobSpec with a non-empty Variants list is a scenario sweep: the worker
// hands the deck to internal/sweep, which integrates all variants in one
// batched run over the shared cache. Samples are tagged with the variant
// name and a per-variant sequence number, so one stream multiplexes N
// waveforms; POST /v1/sweep is sugar for that spec shape.
//
// # Durability
//
// With Config.StateDir set, deck bodies (once per content hash), accepted
// specs (which reference their deck by hash) and periodic checkpoints are
// journaled (journal.go) in one append-only NDJSON file; a spec is durable
// only after its deck is. On restart the server replays the journal,
// resolves the references (a spec whose deck is missing becomes a failed
// job; journals with the netlist inline in the spec still replay), trims
// samples past the last checkpoint of their variant (a plain job is the
// variant ""), and resumes unfinished jobs from their checkpoints through
// the same store. Distributed jobs do not checkpoint. Crash-safety is
// tested by snapshotting the journal bytes mid-run and restarting a second
// server on the copy.
//
// See cmd/matexsrv for the daemon and README.md ("Serving") for the API.
package serve
