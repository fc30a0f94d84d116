// Package serve is the MATEX simulation job service: a long-running HTTP
// front end that accepts netlist-deck jobs (inline SPICE text or a named
// pgbench case), runs them through a bounded worker-pool queue with
// per-job contexts, and streams waveform samples incrementally (NDJSON or
// SSE) as the integrators advance — the serving layer the paper's
// "distributed framework" framing asks for on top of the compute stack.
//
// Every job on one process shares the content-addressed deck store (a
// memo.Store of job.Decks, deck.go: one parse + stamp per deck, keyed by the
// SHA-256 of its text, bounded and LRU), the content-addressed factorization
// cache and the Krylov workspace arenas, so concurrent and repeated jobs
// against the same grid skip straight to the transient phase the way
// repeated dist.Run calls do. Distributed jobs additionally fan out through
// internal/dist: over the in-process pool, or with Config.DistAddrs over other
// job servers, each task posted to one as a job of its own (a spec with
// "inputs" that names its deck by hash), whose deck store holds the deck from
// the one PUT /v1/decks/{hash} the coordinator sends it on a 404. A worker
// is this same server: cmd/matexd and cmd/matexsrv both run Main.
//
// # Decks by hash
//
// A spec names its deck inline ("netlist"), as a pgbench case ("case"), or
// by the SHA-256 of its text ("deck", job.DeckHash): one this server holds
// from an earlier inline job or a PUT /v1/decks/{hash}, which checks the
// text against the hash, parses and stamps it (single flight), journals it
// on a durable server and answers 201, or 200 when the deck is already
// held. A hash the server does not hold — on a durable server, one its
// journal does not hold, so that every accepted job restores — is a 404
// (ErrUnknownDeck), never a guess. GET /v1/decks/{hash} says whether a deck
// is held. A hash-only job is a deck-store hit like any job after the first
// on its deck.
//
// # Lifecycle of a job
//
// POST /v1/jobs (http.go) decodes the body — the inline deck's string in
// one pass, the rest through encoding/json, and the whole body through
// encoding/json whenever the one pass could read anything differently —
// checks the JobSpec's admission bounds (job.Spec.Check), resolves its deck
// through the store and resolves the rest of the spec against it up front
// (job.Spec.Resolve, the code the matex CLI runs too), so malformed decks
// and specs fail with a 400 before queueing; the job holds its job.Task —
// the shared, read-only stamped system and the spec resolved on it — not
// the netlist text. The job then
// waits in a bounded queue until a worker goroutine (serve.go) picks it up
// and runs the task with the job's hooks (job.Task.Run), which forward every
// probe sample into the job's grow-only sample log as the engine delivers
// it — a distributed job's t = 0 row as soon as its first task has the DC
// point, a sweep's shared variants as their lanes pass each sample. Stream
// readers (GET /v1/jobs/{id}/stream) replay that log from any offset and
// then follow live appends, so late subscribers and reconnects see the
// identical sequence. Every change to a job — a sample, running, the
// outcome, a cancel — reaches them through one publish step (Job.publish):
// it wakes the waiting writers, releases the job's lock and yields the
// processor. The integrator that appends a sample never blocks between
// samples, and the writer it woke waits in its processor's next-to-run
// slot, so without the yield a row left only when the runtime preempted the
// integrator, 10 ms on; with it the writer sends the row at once and the
// integrator resumes when the writer parks again. A sweep's or distributed
// job's rows come from the superposition fold's emit, which runs with the
// fold's mutex released, so the yield holds up no other lane.
//
// A job's ordering, like every other solver option, comes from its spec
// alone: the server has no defaults of its own to apply.
//
// # Sweep jobs
//
// A JobSpec with a non-empty Variants list is a scenario sweep: its task
// hands the deck to internal/sweep, which integrates all variants as
// parallel lanes over the shared cache. Samples are tagged with the variant
// name and a per-variant sequence number, so one stream multiplexes N
// waveforms; POST /v1/sweep is sugar for that spec shape.
//
// # Durability
//
// With Config.StateDir set, deck bodies (once per content hash, whether they
// came inline or by PUT), accepted
// specs (which reference their deck by hash) and periodic checkpoints are
// journaled (journal.go) in one append-only NDJSON file; a spec is durable
// only after its deck is. On restart the server replays the journal,
// resolves the references (a spec whose deck is missing becomes a failed
// job; journals with the netlist inline in the spec still replay), trims
// samples past the last checkpoint of their variant (a plain job is the
// variant ""), and resumes unfinished jobs from their checkpoints through
// the same store. Distributed jobs and tasks do not checkpoint. Crash-safety is
// tested by snapshotting the journal bytes mid-run and restarting a second
// server on the copy.
//
// See cmd/matexsrv for the daemon and README.md ("Serving") for the API.
package serve
