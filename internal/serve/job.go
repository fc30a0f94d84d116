package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/matex-sim/matex/internal/dist"
	"github.com/matex-sim/matex/internal/krylov"
	"github.com/matex-sim/matex/internal/pdn"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/sweep"
	"github.com/matex-sim/matex/internal/transient"
)

// JobSpec is the JSON body of a job submission: the input deck (inline
// SPICE text or a named pgbench case) plus the solver configuration, all
// optional except the deck. The field spellings match the matex CLI flags.
type JobSpec struct {
	// Netlist is an inline SPICE-subset deck (the IBM power grid format).
	// Exactly one of Netlist and Case must be set.
	Netlist string `json:"netlist,omitempty"`
	// Case names a synthetic pgbench benchmark ("ibmpg1t" … "ibmpg6t");
	// Scale multiplies the grid edge (0 = 1.0) and NumProbes spreads that
	// many probes across the grid diagonal (0 = 4), exactly like
	// `pgbench -case X -scale S -probes P | matex`.
	Case      string  `json:"case,omitempty"`
	Scale     float64 `json:"scale,omitempty"`
	NumProbes int     `json:"num_probes,omitempty"`

	// Method selects the integrator ("tr", "be", "fe", "tradpt", "mexp",
	// "imatex", "rmatex"; empty = rmatex).
	Method string `json:"method,omitempty"`
	// Tstop/Step in seconds; 0 defers to the deck's .tran card.
	Tstop float64 `json:"tstop,omitempty"`
	Step  float64 `json:"step,omitempty"`
	// Tol, Gamma, MaxDim as in transient.Options (0 = defaults).
	Tol    float64 `json:"tol,omitempty"`
	Gamma  float64 `json:"gamma,omitempty"`
	MaxDim int     `json:"max_dim,omitempty"`
	// Krylov: "auto", "arnoldi", "lanczos" (empty = auto).
	Krylov string `json:"krylov,omitempty"`
	// Ordering: "default", "natural", "mindeg", "nd" (empty =
	// default, resolved against the server's -order setting).
	Ordering string `json:"ordering,omitempty"`
	// Distributed runs the job through the dist scheduler (bump-feature
	// decomposition): over the server's matexd workers when configured,
	// else over the in-process pool. A distributed job streams its
	// superposed waveform as it leaves the scheduler: t = 0 once the DC
	// solve is done, later samples as the subtasks pass them.
	Distributed bool `json:"distributed,omitempty"`
	// TimeoutSec, when positive, is the per-job deadline; an expired job
	// is reported canceled.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// Variants, when non-empty, makes this a sweep job: every variant of
	// the deck runs through internal/sweep as one batched computation
	// (shared factorization-cache lineage, cross-variant solve panels,
	// collinear-variant sharing) and the stream interleaves all variants'
	// samples, each tagged with its variant name and per-variant sequence
	// number. Sweep jobs cannot be distributed, and are capped at
	// MaxSweepVariants variants.
	Variants []sweep.Variant `json:"variants,omitempty"`
}

// MaxSweepVariants bounds the variant count of one sweep job: enough for
// corner grids and modest Monte-Carlo batches, small enough that one job
// cannot monopolize the worker pool's memory.
const MaxSweepVariants = 64

// builtJob is a validated job ready to run: the shared deck plus everything
// the spec's options resolve to on it.
type builtJob struct {
	deck   *deck
	method transient.Method
	krylov krylov.Method
	order  sparse.Ordering
	probes []int
	names  []string
	tstop  float64
	step   float64
}

// build validates the spec against its deck (already parsed and stamped,
// from the server's deck store). All submission-time errors (unknown method,
// missing window, bad variants) surface here or in the deck lookup before
// it, so the HTTP layer can answer 400 before the job is queued.
func (spec *JobSpec) build(d *deck) (*builtJob, error) {
	b := &builtJob{deck: d, tstop: spec.Tstop, step: spec.Step}

	var err error
	if b.method, err = transient.ParseMethod(spec.Method); err != nil {
		return nil, err
	}
	if b.krylov, err = krylov.ParseMethod(strings.ToLower(strings.TrimSpace(spec.Krylov))); err != nil {
		return nil, err
	}
	if b.order, err = sparse.ParseOrdering(spec.Ordering); err != nil {
		return nil, err
	}

	if b.tstop == 0 {
		b.tstop = d.tstop
	}
	if b.step == 0 {
		b.step = d.step
	}
	probeNames := d.prints
	if spec.Case != "" {
		np := spec.NumProbes
		if np <= 0 {
			np = 4
		}
		probeNames = make([]string, 0, np) // never append into the shared deck's slice
		for i := 0; i < np; i++ {
			x := (i + 1) * d.nx / (np + 1)
			y := (i + 1) * d.ny / (np + 1)
			probeNames = append(probeNames, pdn.NodeName(x, y))
		}
	}
	if b.tstop <= 0 {
		return nil, errors.New("no simulation window: set tstop or add a .tran card")
	}
	if b.method.FixedStep() && b.step <= 0 {
		return nil, fmt.Errorf("fixed-step method %q needs step or a .tran step in the deck", spec.Method)
	}
	if len(spec.Variants) > 0 {
		if spec.Distributed {
			return nil, errors.New("a sweep job cannot also be distributed")
		}
		if len(spec.Variants) > MaxSweepVariants {
			return nil, fmt.Errorf("sweep has %d variants; the limit is %d", len(spec.Variants), MaxSweepVariants)
		}
		if err := sweep.Validate(d.sys, spec.Variants); err != nil {
			return nil, err
		}
	}

	// Probes: the deck's .print cards (or the diagonal spread), else the
	// first free node — the same fallback as cmd/matex, through the same
	// shared resolver (supply rails are silently dropped here; the CLI
	// warns on stderr instead).
	if len(probeNames) == 0 {
		if names := d.sys.NodeNames(); len(names) > 0 {
			probeNames = names[:1]
		}
	}
	if b.probes, b.names, _, err = d.sys.ResolveProbes(probeNames); err != nil {
		return nil, err
	}
	return b, nil
}

func scaleOrOne(s float64) float64 {
	if s <= 0 {
		return 1
	}
	return s
}

// JobState is the lifecycle phase of a job.
type JobState string

const (
	// JobQueued: accepted, waiting for a worker slot.
	JobQueued JobState = "queued"
	// JobRunning: a worker is integrating it.
	JobRunning JobState = "running"
	// JobDone: finished; the full waveform and stats are available.
	JobDone JobState = "done"
	// JobFailed: the solver returned an error.
	JobFailed JobState = "failed"
	// JobCanceled: canceled by the client, the per-job deadline, or
	// server shutdown before completion.
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Sample is one streamed waveform chunk: the time point and the probed
// node voltages, in the probe order announced by the stream header. On a
// sweep job, Variant names the variant the sample belongs to and VSeq is
// its 1-based position within that variant's waveform — the stream
// interleaves variants as their lanes advance, and VSeq is what lets a
// client demultiplex it back into per-variant waveforms with no
// reordering ambiguity. Plain jobs leave both fields zero.
type Sample struct {
	T       float64   `json:"t"`
	V       []float64 `json:"v,omitempty"`
	Variant string    `json:"variant,omitempty"`
	VSeq    int       `json:"vseq,omitempty"`
}

// Job is one queued or running simulation. Samples accumulate as the
// integrator advances; any number of stream subscribers replay them from
// the start and then follow live.
type Job struct {
	// ID is the server-assigned job identifier.
	ID string
	// Spec is the submitted request, minus the inline netlist: the job holds
	// the deck the text parsed to, not QueueDepth copies of the text.
	Spec JobSpec

	built     *builtJob
	submitted time.Time

	// jn is the server's durable journal (nil on in-memory servers) and
	// resume the checkpoints a journal-restored job re-enters its
	// integrations from, by variant name — "" is a plain job's single
	// integration; no entry = run from the start. Both are set before the
	// job is published and never change.
	jn     *journal
	resume map[string]*transient.Checkpoint

	mu       sync.Mutex
	notify   chan struct{} // closed and replaced on every append/state change
	state    JobState
	samples  []Sample
	vseq     map[string]int // last VSeq assigned per variant (sweep jobs)
	err      error
	stats    *transient.Stats
	sweep    *sweep.Stats
	report   *dist.Report
	cancel   context.CancelFunc
	started  time.Time
	finished time.Time

	// flushMu serialises flush + checkpoint (journalCheckpoint) and guards
	// flushed: samples[:flushed] are in the journal.
	flushMu sync.Mutex
	flushed int
}

func newJob(id string, spec JobSpec, built *builtJob) *Job {
	return &Job{
		ID:        id,
		Spec:      spec,
		built:     built,
		submitted: time.Now(),
		notify:    make(chan struct{}),
		state:     JobQueued,
		vseq:      make(map[string]int),
	}
}

// broadcast wakes every waiting subscriber. Callers hold j.mu.
func (j *Job) broadcast() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// appendSample records one streamed chunk: the OnSample hook of a plain or
// distributed job (variant ""), and the sweep's OnVariantSample hook —
// called concurrently from its lanes — which stamps the variant name and
// the next per-variant sequence number.
func (j *Job) appendSample(variant string, t float64, v []float64) {
	j.mu.Lock()
	smp := Sample{T: t, V: append([]float64(nil), v...), Variant: variant}
	if variant != "" {
		j.vseq[variant]++
		smp.VSeq = j.vseq[variant]
	}
	j.samples = append(j.samples, smp)
	j.broadcast()
	j.mu.Unlock()
}

// journalCheckpoint is the OnCheckpoint hook of a journal-backed job, for
// its one integration (variant "") or one sweep lane: flush the
// not-yet-durable samples first, then the fsynced checkpoint record — the
// order that guarantees every sample at or before a durable checkpoint's
// time is itself durable, which is what lets a resumed run (re-emitting
// samples after cp.T) splice onto the restored buffer with no gaps and no
// duplicates. A sweep lane flushes all variants' samples — a superset of
// the per-variant invariant, so the splice guarantee holds for each variant
// independently. Lanes checkpoint concurrently, so flush + checkpoint run
// under flushMu: each batch then starts exactly where the previous one
// ended, and replay only ever appends. A failed append aborts the run: the
// integrator surfaces the error and the job fails rather than keep
// computing results the journal cannot make durable.
func (j *Job) journalCheckpoint(variant string, cp transient.Checkpoint) error {
	j.flushMu.Lock()
	defer j.flushMu.Unlock()
	j.mu.Lock()
	batch := j.samples[j.flushed:len(j.samples):len(j.samples)]
	j.mu.Unlock()
	if len(batch) > 0 {
		if err := j.jn.appendSamples(j.ID, j.flushed, batch); err != nil {
			return err
		}
		j.flushed += len(batch)
	}
	return j.jn.appendCheckpoint(j.ID, variant, cp)
}

// markRunning transitions queued → running; it reports false when the job
// was canceled while waiting in the queue.
func (j *Job) markRunning(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	j.cancel = cancel
	j.started = time.Now()
	j.broadcast()
	return true
}

// outcome is the terminal state a run's error stands for: a run aborted by
// its context reports canceled; everything else is done or failed.
func outcome(err error) JobState {
	switch {
	case err == nil:
		return JobDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return JobCanceled
	}
	return JobFailed
}

// finish records the outcome, with the scheduling report of a distributed
// run and the batching report of a sweep.
func (j *Job) finish(res *transient.Result, rep *dist.Report, sst *sweep.Stats, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	j.report, j.sweep = rep, sst
	j.state, j.err = outcome(err), err
	if err == nil {
		j.stats = &res.Stats
	}
	j.cancel = nil
	j.releaseInputsLocked()
	j.broadcast()
}

// releaseInputsLocked drops the job's hold on its deck once it can no
// longer run: retained finished jobs then hold only their samples, probe
// names and stats, so the MaxRetainedJobs window costs waveform memory and
// never keeps a deck the store has evicted alive. (The inline text went at
// submit: a job holds its deck, not a copy of the netlist.) Callers hold
// j.mu.
func (j *Job) releaseInputsLocked() {
	j.built.deck = nil
}

// Cancel stops the job: a queued job is canceled in place (workers skip
// it), a running one has its context canceled and reports canceled when
// the integrator unwinds. Terminal jobs are left alone.
func (j *Job) Cancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case JobQueued:
		j.state = JobCanceled
		j.err = context.Canceled
		j.finished = time.Now()
		j.releaseInputsLocked()
		j.broadcast()
	case JobRunning:
		if j.cancel != nil {
			j.cancel() // finish() runs on the worker goroutine
		}
	}
}

// snapshotFrom returns the samples from index i on, the current state, and
// the channel that closes on the next change — the subscriber loop:
// drain the batch, and if the state is not terminal, wait on ch.
func (j *Job) snapshotFrom(i int) (batch []Sample, state JobState, ch <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i < len(j.samples) {
		batch = j.samples[i:len(j.samples):len(j.samples)]
	}
	return batch, j.state, j.notify
}

// State returns the job's current lifecycle phase.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Status is the JSON shape of a job's current state.
type Status struct {
	ID      string   `json:"id"`
	State   JobState `json:"state"`
	Probes  []string `json:"probes,omitempty"`
	Samples int      `json:"samples"`
	Error   string   `json:"error,omitempty"`
	// Queued/Started/Finished are Unix nanoseconds (0 = not yet).
	Queued   int64 `json:"queued_ns,omitempty"`
	Started  int64 `json:"started_ns,omitempty"`
	Finished int64 `json:"finished_ns,omitempty"`
	// Stats is the solver work report, present once the job is done (for
	// sweep jobs: the counters folded across every lane).
	Stats *transient.Stats `json:"stats,omitempty"`
	// Variants is the variant count of a sweep job (0 for plain jobs);
	// Sweep is its batching report — lanes run, variants served by
	// sharing, panel width histogram — present once the job is done.
	Variants int          `json:"variants,omitempty"`
	Sweep    *sweep.Stats `json:"sweep,omitempty"`
	// Groups/Tasks/Retried surface the dist report for distributed jobs:
	// bump-feature groups found, tasks they were merged into for the
	// nodes present, re-dispatches after worker failures.
	Groups  int `json:"groups,omitempty"`
	Tasks   int `json:"tasks,omitempty"`
	Retried int `json:"retried,omitempty"`
}

// Status snapshots the job for the status endpoint.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:       j.ID,
		State:    j.state,
		Probes:   j.built.names,
		Samples:  len(j.samples),
		Queued:   j.submitted.UnixNano(),
		Stats:    j.stats,
		Variants: len(j.Spec.Variants),
		Sweep:    j.sweep,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		st.Started = j.started.UnixNano()
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.UnixNano()
	}
	if j.report != nil {
		st.Groups = j.report.Groups
		st.Tasks = j.report.Tasks
		st.Retried = j.report.Retried
	}
	return st
}
