package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/matex-sim/matex/internal/faultinject"
	"github.com/matex-sim/matex/internal/transient"
)

// The durable job journal: an append-only JSONL file under Config.StateDir
// that records enough to survive a kill -9 of the whole process —
//
//	spec        one per job, at submit, before the job is queued
//	samples     batches of streamed waveform samples, flushed BEFORE each
//	            checkpoint record so that every sample at or before a
//	            durable checkpoint's time is itself durable
//	checkpoint  a transient.Checkpoint (integrator state at time T),
//	            fsynced — the restart point
//	done        terminal state, after the job finishes
//
// On startup the server replays the journal, compacts it (terminal jobs
// and their waveforms are pruned), restores each interrupted job's sample
// buffer, and re-enqueues the job to resume from its last checkpoint via
// transient.Resume — or from scratch when it never checkpointed. The write
// order makes the invariant exact: a resumed run re-emits every sample
// after the checkpoint time, so restored samples (all at or before it)
// plus the resumed tail reproduce the uninterrupted waveform with no gaps
// and no duplicates.
//
// ErrJournal marks every append failure so the HTTP layer can answer 500
// (server's disk, not the client's spec). The faultinject points
// JournalAppend (spec/samples/done appends: "disk full") and
// CheckpointWrite (checkpoint appends: "torn checkpoint write") fire here.

// journalName is the journal file name under Config.StateDir.
const journalName = "journal.jsonl"

// ErrJournal marks a failed journal append; the HTTP layer maps it to 500.
var ErrJournal = errors.New("serve: journal append failed")

// journalRecord is the one-line JSON envelope of every journal entry.
type journalRecord struct {
	Rec string `json:"rec"` // "spec" | "samples" | "checkpoint" | "done"
	ID  string `json:"id"`
	// Seq is the server job counter at submit (spec records only); the
	// restarted server resumes its counter past the largest replayed Seq.
	Seq uint64 `json:"seq,omitempty"`
	// Spec is the submitted job (spec records only).
	Spec *JobSpec `json:"spec,omitempty"`
	// From/Samples are a sample batch and the 0-based index of its first
	// sample in the job's buffer (samples records only).
	From    int      `json:"from,omitempty"`
	Samples []Sample `json:"samples,omitempty"`
	// Cp is the integrator snapshot (checkpoint records only); Variant
	// names the sweep variant it belongs to (empty on plain jobs, whose
	// single integration owns the record).
	Cp      *transient.Checkpoint `json:"cp,omitempty"`
	Variant string                `json:"variant,omitempty"`
	// State/Error are the terminal outcome (done records only).
	State JobState `json:"state,omitempty"`
	Error string   `json:"error,omitempty"`
}

// journal is the append-side handle. Appends serialize on mu; the file is
// opened O_APPEND so each record is one contiguous write.
type journal struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	faults *faultinject.Registry
}

// restoredJob is one interrupted job reconstructed from the journal.
type restoredJob struct {
	id      string
	seq     uint64
	spec    JobSpec
	samples []Sample
	// cps are the last checkpoints by variant name; "" is a plain job's
	// single integration, as in the record's Variant field.
	cps  map[string]*transient.Checkpoint
	done bool // terminal record seen: prune, do not restore
}

// openJournal replays and compacts the journal under dir, then reopens it
// for appending. It returns the interrupted jobs in submit order and the
// largest job sequence number ever journaled.
func openJournal(dir string, faults *faultinject.Registry) (*journal, []*restoredJob, uint64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("serve: creating state dir: %w", err)
	}
	path := filepath.Join(dir, journalName)
	restored, maxSeq, err := replayJournal(path)
	if err != nil {
		return nil, nil, 0, err
	}
	live := restored[:0]
	for _, r := range restored {
		if !r.done {
			live = append(live, r)
		}
	}
	if err := compactJournal(path, live); err != nil {
		return nil, nil, 0, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("serve: opening journal: %w", err)
	}
	j := &journal{f: f, path: path, faults: faults}
	return j, live, maxSeq, nil
}

// replayJournal reads every record, folding them into per-job restore
// state. A torn trailing line (the crash interrupted an append) is
// ignored; a torn line anywhere else ends the replay at the last good
// record, since everything after it is unordered.
func replayJournal(path string) ([]*restoredJob, uint64, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("serve: opening journal for replay: %w", err)
	}
	defer f.Close() //matex:err-ok(read-only handle)

	byID := make(map[string]*restoredJob)
	var order []*restoredJob
	var maxSeq uint64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20) // sample batches can be large
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			break // torn write: everything from here on is suspect
		}
		switch rec.Rec {
		case "spec":
			if rec.Spec == nil || rec.ID == "" {
				continue
			}
			r := &restoredJob{id: rec.ID, seq: rec.Seq, spec: *rec.Spec}
			byID[rec.ID] = r
			order = append(order, r)
			if rec.Seq > maxSeq {
				maxSeq = rec.Seq
			}
		case "samples":
			r := byID[rec.ID]
			if r == nil {
				continue
			}
			// Batches are contiguous (each starts where the previous one
			// ended), so replay only appends. Journals from binaries that
			// let sweep lanes flush concurrently hold overlapping batches
			// cut from the same buffer: the covered part is skipped, never
			// truncated — a checkpoint journaled after the longer batch
			// counts on every sample of it.
			if skip := len(r.samples) - rec.From; skip >= 0 && skip < len(rec.Samples) {
				r.samples = append(r.samples, rec.Samples[skip:]...)
			}
		case "checkpoint":
			r := byID[rec.ID]
			if r == nil || rec.Cp == nil {
				continue
			}
			if r.cps == nil {
				r.cps = make(map[string]*transient.Checkpoint)
			}
			r.cps[rec.Variant] = rec.Cp
		case "done":
			if r := byID[rec.ID]; r != nil {
				r.done = true
			}
		}
	}
	if err := sc.Err(); err != nil && !errors.Is(err, io.EOF) {
		return nil, 0, fmt.Errorf("serve: replaying journal: %w", err)
	}

	// Trim samples past the checkpoint: the resumed run re-emits them. The
	// flush-before-checkpoint order means this is normally a no-op, but a
	// journal from a crashed *replay* could hold a stale tail. A sweep's
	// samples interleave variants, so the trim is per variant: keep a sample
	// only when its variant has a checkpoint at or after it. An integration
	// without a checkpoint (a plain job that never reached one, every shared
	// variant) re-runs from scratch and re-emits everything.
	for _, r := range order {
		kept := r.samples[:0]
		for _, smp := range r.samples {
			if cp := r.cps[smp.Variant]; cp != nil && smp.T <= cp.T {
				kept = append(kept, smp)
			}
		}
		r.samples = kept
	}
	return order, maxSeq, nil
}

// compactJournal rewrites the journal to hold only the live (interrupted)
// jobs — spec, restored samples, last checkpoint — atomically via a temp
// file rename, pruning every completed entry and its waveform.
func compactJournal(path string, live []*restoredJob) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("serve: compacting journal: %w", err)
	}
	w := bufio.NewWriter(f)
	writeRec := func(rec journalRecord) error {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		_, err = w.Write(b)
		return err
	}
	for _, r := range live {
		spec := r.spec
		if err := writeRec(journalRecord{Rec: "spec", ID: r.id, Seq: r.seq, Spec: &spec}); err != nil {
			return failCompact(f, tmp, err)
		}
		if len(r.samples) > 0 {
			if err := writeRec(journalRecord{Rec: "samples", ID: r.id, Samples: r.samples}); err != nil {
				return failCompact(f, tmp, err)
			}
		}
		names := make([]string, 0, len(r.cps))
		for n := range r.cps {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if err := writeRec(journalRecord{Rec: "checkpoint", ID: r.id, Variant: n, Cp: r.cps[n]}); err != nil {
				return failCompact(f, tmp, err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return failCompact(f, tmp, err)
	}
	if err := f.Sync(); err != nil {
		return failCompact(f, tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("serve: compacting journal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("serve: compacting journal: %w", err)
	}
	return nil
}

// failCompact abandons a half-written compaction temp file.
func failCompact(f *os.File, tmp string, err error) error {
	f.Close()      //matex:err-ok(already failing; the temp file is removed next)
	os.Remove(tmp) //matex:err-ok(best-effort cleanup of the temp file)
	return fmt.Errorf("serve: compacting journal: %w", err)
}

// append marshals and writes one record; sync additionally fsyncs (used
// for checkpoints and terminal records — the entries a restart pivots on).
// point is the faultinject site consulted before touching the disk.
func (j *journal) append(rec journalRecord, sync bool, point faultinject.Point) error {
	if err := j.faults.Check(point); err != nil {
		return fmt.Errorf("%w: %w", ErrJournal, err)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrJournal, err)
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("%w: %w", ErrJournal, err)
	}
	if sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("%w: %w", ErrJournal, err)
		}
	}
	return nil
}

func (j *journal) appendSpec(id string, seq uint64, spec JobSpec) error {
	return j.append(journalRecord{Rec: "spec", ID: id, Seq: seq, Spec: &spec}, true, faultinject.JournalAppend)
}

func (j *journal) appendSamples(id string, from int, batch []Sample) error {
	return j.append(journalRecord{Rec: "samples", ID: id, From: from, Samples: batch}, false, faultinject.JournalAppend)
}

func (j *journal) appendCheckpoint(id, variant string, cp transient.Checkpoint) error {
	return j.append(journalRecord{Rec: "checkpoint", ID: id, Variant: variant, Cp: &cp}, true, faultinject.CheckpointWrite)
}

func (j *journal) appendDone(id string, state JobState, errMsg string) error {
	return j.append(journalRecord{Rec: "done", ID: id, State: state, Error: errMsg}, true, faultinject.JournalAppend)
}

// Close flushes and closes the journal file.
func (j *journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		j.f.Close() //matex:err-ok(sync already failed; report that error)
		return fmt.Errorf("serve: closing journal: %w", err)
	}
	return j.f.Close()
}
