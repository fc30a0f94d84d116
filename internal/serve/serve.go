package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/matex-sim/matex/internal/job"
	"github.com/matex-sim/matex/internal/memo"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/sweep"
	"github.com/matex-sim/matex/internal/transient"
)

// Config configures a Server.
type Config struct {
	// Workers bounds concurrently running jobs; 0 = GOMAXPROCS.
	Workers int
	// QueueDepth bounds queued-but-not-running jobs; a full queue rejects
	// submissions with ErrQueueFull. 0 = 64.
	QueueDepth int
	// CacheBytes is the shared factorization cache budget (0 = the
	// sparse.NewCache default).
	CacheBytes int64
	// DistAddrs lists the job servers (host:port) distributed jobs post their
	// tasks to, each task a job of its own there; empty runs them on the
	// in-process pool.
	DistAddrs []string
	// MaxRetainedJobs bounds how many finished jobs (and their retained
	// sample waveforms) stay queryable/replayable after completion; once
	// exceeded, the oldest terminal jobs are evicted. Queued and running
	// jobs are never evicted. 0 = 256.
	MaxRetainedJobs int
	// StateDir, when non-empty, makes jobs durable: an append-only journal
	// under it records each distinct deck body once, under its content
	// hash, and at submit a spec that references it; then integrator
	// checkpoints (plus the sample batches they cover) as jobs run, and
	// terminal results. On startup the server replays the journal,
	// re-enqueues interrupted jobs from their last checkpoint
	// (transient.Resume over the shared factorization cache and the deck
	// store — recovery pays no re-analysis, and one parse per deck however
	// many jobs were on it), and prunes completed entries. Empty keeps jobs
	// in-memory only (pre-journal behavior).
	StateDir string
	// CheckpointEvery is the journaled-checkpoint cadence in accepted
	// integrator steps (0 = the transient default, 128). Smaller values
	// shrink the recovery window after a crash at the cost of more journal
	// I/O; it only applies when StateDir is set. Distributed jobs and tasks
	// do not checkpoint — interrupted ones restart from scratch.
	CheckpointEvery int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxRetainedJobs <= 0 {
		c.MaxRetainedJobs = 256
	}
	return c
}

// Submission errors the HTTP layer maps to status codes.
var (
	// ErrShuttingDown: the server no longer accepts jobs (503).
	ErrShuttingDown = errors.New("serve: shutting down")
	// ErrQueueFull: the job queue is at capacity (429).
	ErrQueueFull = errors.New("serve: job queue full")
)

// totals aggregates solver work counters across finished jobs (the /stats
// cross-job view; per-job Stats stay on the jobs).
type totals struct {
	Jobs           int `json:"jobs"`
	Factorizations int `json:"factorizations"`
	Refactors      int `json:"refactors"`
	SymbolicHits   int `json:"symbolic_hits"`
	CacheHits      int `json:"cache_hits"`
	CacheMisses    int `json:"cache_misses"`
	SolvePairs     int `json:"solve_pairs"`
	SpMVs          int `json:"spmvs"`
	Steps          int `json:"steps"`
	KrylovSpots    int `json:"krylov_spots"`
	LanczosSpots   int `json:"lanczos_spots"`
	InputPairs     int `json:"input_pairs"`
	InputAhead     int `json:"input_ahead"`
	InputDiscarded int `json:"input_discarded"`
	DeviationSpots int `json:"deviation_spots"`
	// Sweeps counts completed sweep jobs and SweepVariants the variants
	// they served.
	Sweeps        int `json:"sweeps"`
	SweepVariants int `json:"sweep_variants"`
}

// addSweep folds one completed sweep into the cross-job totals (the
// transient counters go through add, like any job).
func (t *totals) addSweep(st *sweep.Stats) {
	t.Sweeps++
	t.SweepVariants += st.Variants
}

func (t *totals) add(s *transient.Stats) {
	t.Jobs++
	t.Factorizations += s.Factorizations
	t.Refactors += s.Refactors
	t.SymbolicHits += s.SymbolicHits
	t.CacheHits += s.CacheHits
	t.CacheMisses += s.CacheMisses
	t.SolvePairs += s.SolvePairs
	t.SpMVs += s.SpMVs
	t.Steps += s.Steps
	t.KrylovSpots += len(s.KrylovDims)
	t.LanczosSpots += s.LanczosSpots
	t.InputPairs += s.InputPairs
	t.InputAhead += s.InputAhead
	t.InputDiscarded += s.InputDiscarded
	t.DeviationSpots += s.DeviationSpots
}

// Server is the simulation job service. Create with New, expose via
// Handler, stop with Shutdown.
type Server struct {
	cfg     Config
	cache   *sparse.Cache
	decks   *memo.Store[string, *job.Deck]
	queue   chan *Job
	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	start   time.Time

	// journal is the durable job log (nil without Config.StateDir).
	journal *journal

	mu        sync.Mutex
	jobs      map[string]*Job
	order     []string // submission order, for listing
	seq       uint64
	closing   bool
	inFlight  int
	accepted  uint64
	completed uint64
	failed    uint64
	canceled  uint64
	resumed   uint64 // jobs re-enqueued from the journal at startup
	deckPuts  uint64 // PUT /v1/decks/{hash} answered 2xx
	inline    uint64 // accepted submissions that carried their netlist inline
	agg       totals
	// runs/runNanos accumulate the wall time of every job a worker actually
	// ran (terminal, including failed/canceled runs) — the mean-latency
	// input of the 429 Retry-After estimate.
	runs     uint64
	runNanos int64
}

// New starts a Server's worker pool and returns it. With Config.StateDir
// set it first replays the durable job journal: interrupted jobs are
// re-enqueued (from their last checkpoint when they have one) ahead of any
// new submission, completed entries are pruned, and the job counter resumes
// past every journaled ID. The error return is the journal's — an
// in-memory server (empty StateDir) cannot fail.
//
//matex:ctx-root(server lifecycle root; every job derives its per-job context from it)
//matex:ctx-exempt(the restore-queue send cannot block: the queue is sized QueueDepth+len(restored) and the workers have not started)
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()

	var (
		jn       *journal
		restored []*restoredJob
		maxSeq   uint64
	)
	if cfg.StateDir != "" {
		var err error
		if jn, restored, maxSeq, err = openJournal(cfg.StateDir); err != nil {
			return nil, err
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		cache:   sparse.NewCache(cfg.CacheBytes),
		decks:   memo.New[string, *job.Deck](memo.NewBudget(maxBodyBytes)),
		queue:   make(chan *Job, cfg.QueueDepth+len(restored)),
		baseCtx: ctx,
		stop:    cancel,
		start:   time.Now(),
		jobs:    make(map[string]*Job),
		journal: jn,
		seq:     maxSeq,
	}
	// Re-enqueue interrupted jobs before the workers start: they keep their
	// IDs, their journal-restored sample buffers (every sample at or before
	// the checkpoint), and resume mid-waveform via transient.Resume. A spec
	// that cannot be rebuilt — its deck body is missing from the journal, or
	// a changed binary no longer accepts it — surfaces as a failed job rather
	// than a lost one: counted and journaled done like any other failure, so
	// /stats stays balanced and the next restart does not resurrect it.
	for _, r := range restored {
		job := s.restoreJob(r)
		s.jobs[job.ID] = job
		s.order = append(s.order, job.ID)
		s.accepted++
		if job.err != nil {
			s.failed++
			jn.appendDone(job.ID, JobFailed, job.err.Error()) //matex:err-ok(a lost done record only costs re-failing the same spec after the next restart)
			continue
		}
		s.resumed++
		s.queue <- job
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// prepare resolves a spec to its task, for a submission and for a
// journal-restored job alike. key and text name the deck (the spec itself no
// longer does): an inline deck's content hash and body, a hash-only spec's
// hash alone — a deck the server must already hold — or, both empty, a
// pgbench case. The deck comes from the store, so only the first job on it
// parses and stamps; what depends on the job's options is resolved per job.
func (s *Server) prepare(spec *JobSpec, key, text string) (*job.Task, error) {
	var d *job.Deck
	var err error
	switch {
	case text != "":
		d, _, err = s.learnDeck(key, text)
	case key != "":
		d, err = s.heldDeck(key, s.decks.Lookup)
	default:
		d, _, err = s.decks.Get(caseKey(spec.Case, spec.Scale), func() (*job.Deck, int64, error) {
			return job.GenerateDeck(spec.Case, spec.Scale)
		})
	}
	if err != nil {
		return nil, err
	}
	return spec.Resolve(d)
}

// learnDeck is the deck of an inline netlist or a PUT under its content hash
// key: parsed and stamped on the store's first sight of it (single flight),
// and on a durable server journaled — once per hash and journal generation —
// before any job or client is told it is there. hit reports that the store
// already held it. A server with workers keeps each deck's text, which its
// distributed jobs send a worker that does not hold the deck.
func (s *Server) learnDeck(key, text string) (d *job.Deck, hit bool, err error) {
	d, hit, err = s.decks.Get(key, func() (*job.Deck, int64, error) {
		d, err := job.ParseDeck(text, len(s.cfg.DistAddrs) > 0)
		return d, int64(len(text)), err
	})
	if err != nil {
		return nil, false, err
	}
	if s.journal != nil {
		if err := s.journal.appendDeck(key, text); err != nil {
			return nil, false, err
		}
	}
	return d, hit, nil
}

// heldDeck is the deck under hash key as find (the store's Lookup, which
// counts a hit, or Peek) has it, provided a durable server's journal holds
// it too, so a job on it would restore; anything else is ErrUnknownDeck.
func (s *Server) heldDeck(key string, find func(string) (*job.Deck, bool)) (*job.Deck, error) {
	if s.journal == nil || s.journal.holds(key) {
		if d, ok := find(key); ok {
			return d, nil
		}
	}
	return nil, fmt.Errorf("%w %s", ErrUnknownDeck, key)
}

// restoreJob rebuilds one journal-replayed job: resolve its deck reference
// through the store (N interrupted jobs on one deck parse it once), reattach
// the restored samples, and carry the resume checkpoints. A failed rebuild
// comes back as a failed job so the client sees the outcome.
func (s *Server) restoreJob(r *restoredJob) *Job {
	var task *job.Task
	err := ErrDeckMissing
	if r.hash == "" || r.netlist != "" {
		task, err = s.prepare(&r.spec, r.hash, r.netlist)
	}
	j := newJob(r.id, r.spec, task)
	if err != nil {
		j.state = JobFailed
		j.err = fmt.Errorf("serve: restoring job from journal: %w", err)
		j.finished = time.Now()
		return j
	}
	j.jn = s.journal
	j.samples = r.samples
	j.flushed = len(r.samples)
	j.resume = r.cps
	// A restored sweep continues each variant's VSeq past its retained
	// samples, so the spliced stream stays gap- and duplicate-free.
	for _, smp := range r.samples {
		if smp.Variant != "" {
			j.vseq[smp.Variant] = max(j.vseq[smp.Variant], smp.VSeq)
		}
	}
	return j
}

// CacheStats exposes the shared factorization cache counters.
func (s *Server) CacheStats() sparse.CacheStats { return s.cache.Stats() }

// DeckStats exposes the deck store counters.
func (s *Server) DeckStats() memo.Stats { return s.decks.Stats() }

// Submit validates and enqueues a job; the first job on a deck also parses
// and stamps it, every later one — and every job naming its deck by hash —
// takes it from the deck store. The returned job is already visible to
// Job/stream lookups. Errors: spec problems (client's fault), ErrUnknownDeck,
// ErrQueueFull, ErrShuttingDown, ErrJournal (durable servers only).
//
//matex:ctx-exempt(the queue send cannot block: capacity is checked under s.mu and Submit is the only sender)
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	if err := spec.Check(maxBodyBytes); err != nil {
		return nil, err
	}
	// Reject cheap-to-detect overload before paying for the hash (and, on a
	// deck's first sight, the parse + stamp and the journal's deck record):
	// a full or draining server answers without touching the deck. The
	// definitive check re-runs under the lock.
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil, ErrShuttingDown
	}
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	s.mu.Unlock()

	// From here on the job is its deck plus a spec that names it by key
	// alone, as a hash-only spec does: the text is dropped, so a full queue
	// pins no copies of it.
	key, text := spec.Deck, spec.Netlist
	if text != "" {
		key = job.DeckHash(text)
	}
	spec.Netlist, spec.Deck = "", ""
	// Everything sized by the deck or the spec happens before s.mu: the deck
	// body goes to the journal once per hash (and is durable before any spec
	// that references it), the spec is marshaled here, and only the small
	// spec line's write + fsync are left for the critical section.
	task, err := s.prepare(&spec, key, text)
	if err != nil {
		return nil, err
	}
	var specJSON json.RawMessage
	if s.journal != nil {
		if specJSON, err = json.Marshal(&spec); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrJournal, err)
		}
	}

	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil, ErrShuttingDown
	}
	// Capacity check before the journal append: Submit is the only queue
	// sender and it holds s.mu, so the queue can only drain between here and
	// the send below — the send cannot block, and a journaled spec is never
	// orphaned by a full queue.
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	s.seq++
	job := newJob(fmt.Sprintf("job-%d", s.seq), spec, task)
	job.jn = s.journal
	// Journal the spec before the job becomes visible: an accepted job is a
	// durable job. The write + fsync happen under s.mu so journal order
	// matches ID order. A failed append rejects the submission (ErrJournal →
	// 500) rather than accepting work a crash would silently lose.
	if s.journal != nil {
		if err := s.journal.appendSpec(job.ID, s.seq, key, specJSON); err != nil {
			s.seq--
			s.mu.Unlock()
			return nil, err
		}
	}
	s.queue <- job
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.accepted++
	if text != "" {
		s.inline++
	}
	s.mu.Unlock()
	return job, nil
}

// Job looks a job up by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists all jobs in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// pruneLocked evicts the oldest terminal jobs past the retention cap so a
// long-running service does not accumulate every waveform it ever served.
// Callers hold s.mu.
func (s *Server) pruneLocked() {
	terminal := 0
	for _, id := range s.order {
		if s.jobs[id].State().Terminal() {
			terminal++
		}
	}
	if terminal <= s.cfg.MaxRetainedJobs {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if terminal > s.cfg.MaxRetainedJobs && s.jobs[id].State().Terminal() {
			delete(s.jobs, id)
			terminal--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// runJob executes one job with a per-job context derived from the server
// lifetime, streaming samples into the job as the integrator advances.
func (s *Server) runJob(job *Job) {
	var (
		ctx    context.Context
		cancel context.CancelFunc
	)
	if job.Spec.TimeoutSec > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, time.Duration(job.Spec.TimeoutSec*float64(time.Second)))
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	defer cancel()
	if !job.markRunning(cancel) {
		// Canceled while queued: account for it so the /stats invariant
		// accepted = completed + failed + canceled + queued + in-flight
		// holds even for jobs no worker ever ran.
		s.mu.Lock()
		s.canceled++
		s.pruneLocked()
		s.mu.Unlock()
		if s.journal != nil {
			st := job.Status()
			s.journal.appendDone(job.ID, st.State, st.Error) //matex:err-ok(cancellation already took effect; a lost done record only costs a redundant restore after restart)
		}
		return
	}
	s.mu.Lock()
	s.inFlight++
	s.mu.Unlock()

	runStart := time.Now()
	out, err := s.simulate(ctx, job)
	// Fold the outcome into the server counters BEFORE finish() makes the
	// terminal state visible: a client that watches the stream's done tail
	// and immediately reads /stats must find its job already counted.
	// Pruning waits until after finish() — the job only becomes evictable
	// once it is terminal.
	s.mu.Lock()
	s.inFlight--
	s.runs++
	s.runNanos += int64(time.Since(runStart))
	switch outcome(err) {
	case JobDone:
		s.completed++
		s.agg.add(&out.Stats)
		if out.Sweep != nil {
			s.agg.addSweep(out.Sweep)
		}
	case JobCanceled:
		s.canceled++
	default:
		s.failed++
	}
	s.mu.Unlock()
	job.finish(out, err)
	if s.journal != nil {
		// The terminal record prunes the job from the next restart's replay.
		// At-least-once: finish() already published the outcome, so a crash
		// between finish and this append merely re-runs a completed job —
		// and a failed append here is the same crash window, not a new
		// failure mode worth failing the finished job over.
		st := job.Status()
		s.journal.appendDone(job.ID, st.State, st.Error) //matex:err-ok(outcome already published; a lost done record only costs a redundant re-run after restart)
	}
	s.mu.Lock()
	s.pruneLocked()
	s.mu.Unlock()
}

// simulate runs the job's task over the server's shared cache and
// workers, its samples streaming into the job as they leave the engine.
// On durable servers plain jobs and sweep lanes journal their checkpoints,
// and a restored job re-enters each integration at its last one.
func (s *Server) simulate(ctx context.Context, j *Job) (*job.Outcome, error) {
	h := job.Hooks{Cache: s.cache, Workers: s.cfg.DistAddrs, OnSample: j.appendSample, Resume: j.resume}
	if j.jn != nil {
		h.OnCheckpoint, h.CheckpointEvery = j.journalCheckpoint, s.cfg.CheckpointEvery
	}
	return j.task.Run(ctx, h)
}

// BeginDrain stops the intake: submissions fail with ErrShuttingDown, the
// readiness probe flips to 503, and the queue is closed so the workers exit
// once it drains. Jobs already queued or running are unaffected. Idempotent;
// Shutdown calls it implicitly — calling it first lets a load balancer see
// the instance unready for its full drain window.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	if !s.closing {
		s.closing = true
		close(s.queue)
	}
	s.mu.Unlock()
}

// Draining reports whether BeginDrain/Shutdown has begun (the /readyz input).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closing
}

// Shutdown drains the service: no new submissions, queued and running jobs
// finish, then the workers exit. If ctx fires first, running jobs are
// canceled (they unwind at their next step boundary) and Shutdown returns
// the context error after they do. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.stop() // cancel in-flight jobs; they abort at the next boundary
		<-done
		err = ctx.Err()
	}
	if s.journal != nil {
		// Workers are gone, so nothing appends concurrently. Jobs the ctx
		// cancellation unwound were journaled done (canceled) by their
		// workers — graceful shutdown is a terminal outcome, not a crash;
		// only a kill without a done record resumes on the next start.
		s.journal.Close() //matex:err-ok(shutdown path; every record that matters was fsynced at append time)
	}
	return err
}
