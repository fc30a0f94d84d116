package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"github.com/matex-sim/matex/internal/dist"
	"github.com/matex-sim/matex/internal/job"
	"github.com/matex-sim/matex/internal/sweep"
	"github.com/matex-sim/matex/internal/transient"
)

// JobSpec is the JSON body of a job submission; see job.Spec.
type JobSpec = job.Spec

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

	// task is the resolved job, dropped once it can no longer run; probes
	// are its probe names, which the job's status keeps.
	task      *job.Task
	probes    []string
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

func newJob(id string, spec JobSpec, task *job.Task) *Job {
	j := &Job{
		ID:        id,
		Spec:      spec,
		task:      task,
		submitted: time.Now(),
		notify:    make(chan struct{}),
		state:     JobQueued,
		vseq:      make(map[string]int),
	}
	if task != nil {
		j.probes = task.Names
	}
	return j
}

// broadcast wakes every waiting subscriber. Callers hold j.mu.
func (j *Job) broadcast() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// appendSample is the job's OnSample hook: it records one streamed chunk of
// a plain or distributed job (variant "") or of a sweep variant — sweep
// lanes call it concurrently — stamping a sweep sample with the next
// per-variant sequence number.
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
// run and the sharing report of a sweep.
func (j *Job) finish(out *job.Outcome, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	j.state, j.err = outcome(err), err
	if err == nil {
		j.stats, j.report, j.sweep = &out.Stats, out.Dist, out.Sweep
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
	j.task = nil
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
	// Sweep is its sharing report — lanes run, variants served by
	// sharing — present once the job is done.
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
		Probes:   j.probes,
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
