package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/matex-sim/matex/internal/job"
	"github.com/matex-sim/matex/internal/transient"
)

// The durable job journal: an append-only JSONL file under Config.StateDir
// that records enough to survive a kill -9 of the whole process —
//
//	deck        a netlist's text — an inline job's, or a PUT /v1/decks/{hash}
//	            — under its content hash, once per hash and journal
//	            generation (the file as it stands since the last start's
//	            compaction), fsynced BEFORE the first spec that references
//	            it: a durable spec always finds its deck
//	spec        one per job, at submit, before the job is queued; it carries
//	            the deck's hash, not the text
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
// Journals written before decks were records of their own carry the text
// inline in each spec; replay hashes it and treats it as that spec's deck
// record, and the compaction that follows rewrites the file by reference.
//
// ErrJournal marks every append failure so the HTTP layer can answer 500
// (server's disk, not the client's spec). Every operation the journal
// performs on disk passes one test-only seam, diskFault, through which the
// tests fail each operation of a job's life in turn.

// journalName is the journal file name under Config.StateDir.
const journalName = "journal.jsonl"

// ErrJournal marks a failed journal append; the HTTP layer maps it to 500.
var ErrJournal = errors.New("serve: journal append failed")

// maxRecordBytes bounds one journal line on replay. JSON escapes a byte into
// at most six, so no deck the admission bound lets through makes a longer
// record than this.
const maxRecordBytes = 6*maxBodyBytes + 4096

// journalRecord is the one-line JSON envelope of every journal entry.
type journalRecord struct {
	Rec string `json:"rec"` // "deck" | "spec" | "samples" | "checkpoint" | "done"
	ID  string `json:"id,omitempty"`
	// Hash is the hex SHA-256 of an inline deck's text: what a deck record
	// stores its Netlist under and what a spec record references (empty on
	// the spec of a pgbench-case job, which needs no body).
	Hash    string `json:"hash,omitempty"`
	Netlist string `json:"netlist,omitempty"`
	// Seq is the server job counter at submit (spec records only); the
	// restarted server resumes its counter past the largest replayed Seq.
	Seq uint64 `json:"seq,omitempty"`
	// Spec is the submitted JobSpec (spec records only), marshaled by the
	// submitter ahead of the critical section that assigns ID and Seq.
	Spec json.RawMessage `json:"spec,omitempty"`
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
	mu sync.Mutex
	f  *diskFile
	// decks are the hashes whose deck record this generation of the file
	// holds, durably: specs may reference them without writing the body.
	decks map[string]bool
	// size is the length of the file's whole lines: where a line that fails
	// is cut back to. broken is the error of a cut that failed; the file's
	// tail is then unknown, and every later append fails with it.
	size   int64
	broken error
}

// restoredJob is one interrupted job reconstructed from the journal.
type restoredJob struct {
	id   string
	seq  uint64
	spec JobSpec // without the netlist, whatever the record's format
	// hash is the deck reference of an inline-netlist job and netlist the
	// body replay resolved it to — empty when the journal does not hold it.
	// Jobs on one deck share one string. A pgbench-case job has neither.
	hash, netlist string
	samples       []Sample
	// cps are the last checkpoints by variant name; "" is a plain job's
	// single integration, as in the record's Variant field.
	cps  map[string]*transient.Checkpoint
	done bool // terminal record seen: prune, do not restore
}

// openJournal replays and compacts the journal under dir, then reopens it
// for appending. It returns the interrupted jobs in submit order and the
// largest job sequence number ever journaled.
func openJournal(dir string) (*journal, []*restoredJob, uint64, error) {
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
	decks, err := compactJournal(path, live)
	if err != nil {
		return nil, nil, 0, err
	}
	f, err := openDisk(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("serve: opening journal: %w", err)
	}
	fi, err := f.f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("serve: opening journal: %w", err)
	}
	j := &journal{f: f, decks: decks, size: fi.Size()}
	return j, live, maxSeq, nil
}

// replayJournal reads every record, folding them into per-job restore
// state and resolving each spec's deck reference. A torn trailing line (the
// crash interrupted an append) is ignored; a torn or unreadable line
// anywhere else ends the replay at the last good record, since everything
// after it is unordered. Only a file that cannot be opened is an error: a
// journal that cannot be read to its end must not keep the server from
// starting.
func replayJournal(path string) ([]*restoredJob, uint64, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("serve: opening journal for replay: %w", err)
	}
	defer f.Close()

	byID := make(map[string]*restoredJob)
	decks := make(map[string]string) // content hash → text
	var order []*restoredJob
	var maxSeq uint64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), maxRecordBytes)
	// A scan error (an over-long line, a failing disk) ends the loop like a
	// torn write does: what was read so far stands.
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			break // torn write: everything from here on is suspect
		}
		switch rec.Rec {
		case "deck":
			// Filed under the hash of what was read, not the hash the record
			// claims: a body that is not its hash's is then simply not found
			// by the specs that reference it, and never stands in for it.
			if rec.Netlist != "" {
				decks[job.DeckHash(rec.Netlist)] = rec.Netlist
			}
		case "spec":
			r := &restoredJob{id: rec.ID, seq: rec.Seq, hash: rec.Hash}
			if rec.ID == "" || json.Unmarshal(rec.Spec, &r.spec) != nil {
				continue
			}
			if r.spec.Netlist != "" { // older format: the body rides in the spec
				r.hash = job.DeckHash(r.spec.Netlist)
				decks[r.hash] = r.spec.Netlist
				r.spec.Netlist = ""
			}
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
	for _, r := range order {
		r.netlist = decks[r.hash]
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
// jobs — each deck one of them references, once, ahead of the first spec
// that does; then per job its spec, restored samples and last checkpoints —
// atomically via a temp file rename, pruning every completed entry, its
// waveform and every deck no live job is on. It returns the hashes of the
// decks the new file holds.
func compactJournal(path string, live []*restoredJob) (map[string]bool, error) {
	tmp := path + ".tmp"
	f, err := openDisk(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC)
	if err != nil {
		return nil, fmt.Errorf("serve: compacting journal: %w", err)
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
	decks := make(map[string]bool)
	for _, r := range live {
		if r.netlist != "" && !decks[r.hash] {
			if err := writeRec(journalRecord{Rec: "deck", Hash: r.hash, Netlist: r.netlist}); err != nil {
				return nil, failCompact(f, tmp, err)
			}
			decks[r.hash] = true
		}
		spec, err := json.Marshal(&r.spec)
		if err != nil {
			return nil, failCompact(f, tmp, err)
		}
		if err := writeRec(journalRecord{Rec: "spec", ID: r.id, Seq: r.seq, Hash: r.hash, Spec: spec}); err != nil {
			return nil, failCompact(f, tmp, err)
		}
		if len(r.samples) > 0 {
			if err := writeRec(journalRecord{Rec: "samples", ID: r.id, Samples: r.samples}); err != nil {
				return nil, failCompact(f, tmp, err)
			}
		}
		names := make([]string, 0, len(r.cps))
		for n := range r.cps {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if err := writeRec(journalRecord{Rec: "checkpoint", ID: r.id, Variant: n, Cp: r.cps[n]}); err != nil {
				return nil, failCompact(f, tmp, err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return nil, failCompact(f, tmp, err)
	}
	if err := f.Sync(); err != nil {
		return nil, failCompact(f, tmp, err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("serve: compacting journal: %w", err)
	}
	if err := renameDisk(tmp, path); err != nil {
		return nil, fmt.Errorf("serve: compacting journal: %w", err)
	}
	// The new generation is durable once its directory entry is: without
	// this sync a power loss could take the entry back, and with it every
	// record appended to this generation since.
	if err := syncDir(filepath.Dir(path)); err != nil {
		return nil, fmt.Errorf("serve: compacting journal: %w", err)
	}
	return decks, nil
}

// failCompact abandons a half-written compaction temp file. The error that
// brought it here is the one reported: the Close and the Remove are
// best-effort cleanup.
func failCompact(f *diskFile, tmp string, err error) error {
	f.Close()
	os.Remove(tmp)
	return fmt.Errorf("serve: compacting journal: %w", err)
}

// encode marshals one record into its journal line.
func (j *journal) encode(rec journalRecord) ([]byte, error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrJournal, err)
	}
	return append(b, '\n'), nil
}

// writeLocked writes one encoded line; sync additionally fsyncs (used for
// decks, specs, checkpoints and terminal records — the entries a restart
// pivots on). A line whose write fails is cut back off the file, so no torn
// line ends a later replay early; with refuse, so is a line whose fsync
// fails — a spec whose submitter is told it was refused must not come back
// on a restart. A cut that fails poisons the journal. Callers hold j.mu.
func (j *journal) writeLocked(line []byte, sync, refuse bool) error {
	if j.broken != nil {
		return fmt.Errorf("%w: %w", ErrJournal, j.broken)
	}
	n, err := j.f.Write(line)
	if err == nil && sync {
		if err = j.f.Sync(); err != nil && !refuse {
			j.size += int64(n) // whole in the file; only its durability failed
			return fmt.Errorf("%w: %w", ErrJournal, err)
		}
	}
	if err != nil {
		if cerr := j.cutLocked(); cerr != nil {
			j.broken = fmt.Errorf("cutting a failed record off the journal: %w", cerr)
		}
		return fmt.Errorf("%w: %w", ErrJournal, err)
	}
	j.size += int64(n)
	return nil
}

// cutLocked truncates the file back to its whole lines, durably.
func (j *journal) cutLocked() error {
	if err := j.f.Truncate(j.size); err != nil {
		return err
	}
	return j.f.Sync()
}

// append encodes and writes one record.
func (j *journal) append(rec journalRecord, sync bool) error {
	line, err := j.encode(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.writeLocked(line, sync, false)
}

// holds reports whether this generation of the journal holds the deck
// record of hash: whether a job that references it would restore.
func (j *journal) holds(hash string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.decks[hash]
}

// appendDeck makes a deck body durable under its hash, unless this
// generation of the journal already holds it. It returns only once the
// record is on disk, whoever wrote it: concurrent first sights of one deck
// serialize here and leave one record.
func (j *journal) appendDeck(hash, netlist string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.decks[hash] {
		return nil
	}
	line, err := j.encode(journalRecord{Rec: "deck", Hash: hash, Netlist: netlist})
	if err != nil {
		return err
	}
	if err := j.writeLocked(line, true, false); err != nil {
		return err
	}
	j.decks[hash] = true
	return nil
}

// appendSpec makes a spec durable, or leaves the file without it: the
// submission is refused on any failure, so the record must not outlive it.
func (j *journal) appendSpec(id string, seq uint64, hash string, spec json.RawMessage) error {
	line, err := j.encode(journalRecord{Rec: "spec", ID: id, Seq: seq, Hash: hash, Spec: spec})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.writeLocked(line, true, true)
}

func (j *journal) appendSamples(id string, from int, batch []Sample) error {
	return j.append(journalRecord{Rec: "samples", ID: id, From: from, Samples: batch}, false)
}

func (j *journal) appendCheckpoint(id, variant string, cp transient.Checkpoint) error {
	return j.append(journalRecord{Rec: "checkpoint", ID: id, Variant: variant, Cp: &cp}, true)
}

func (j *journal) appendDone(id string, state JobState, errMsg string) error {
	return j.append(journalRecord{Rec: "done", ID: id, State: state, Error: errMsg}, true)
}

// Close flushes and closes the journal file.
func (j *journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		j.f.Close() // the Sync error is the one to report
		return fmt.Errorf("serve: closing journal: %w", err)
	}
	return j.f.Close()
}

// diskFault is the journal's fault seam: when set, it is called before every
// operation the journal performs on disk — op is "open", "write", "sync",
// "truncate", "close" or "rename", path the file or directory it acts on
// (a rename's target), data a write's bytes — and an error it returns
// fails that operation in its place. Only tests set it.
var diskFault atomic.Pointer[func(op, path string, data []byte) error]

// onDisk passes one disk operation through the fault seam.
func onDisk(op, path string, data []byte) error {
	if fault := diskFault.Load(); fault != nil {
		return (*fault)(op, path, data)
	}
	return nil
}

// diskFile is a file the journal writes — the append handle, compaction's
// temp file, the state directory it syncs — whose every operation passes the
// fault seam first.
type diskFile struct{ f *os.File }

func openDisk(path string, flag int) (*diskFile, error) {
	if err := onDisk("open", path, nil); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return &diskFile{f}, nil
}

func (d *diskFile) Write(p []byte) (int, error) {
	if err := onDisk("write", d.f.Name(), p); err != nil {
		return 0, err
	}
	return d.f.Write(p)
}

func (d *diskFile) Sync() error {
	if err := onDisk("sync", d.f.Name(), nil); err != nil {
		return err
	}
	return d.f.Sync()
}

func (d *diskFile) Truncate(size int64) error {
	if err := onDisk("truncate", d.f.Name(), nil); err != nil {
		return err
	}
	return d.f.Truncate(size)
}

func (d *diskFile) Close() error {
	if err := onDisk("close", d.f.Name(), nil); err != nil {
		return err
	}
	return d.f.Close()
}

func renameDisk(from, to string) error {
	if err := onDisk("rename", to, nil); err != nil {
		return err
	}
	return os.Rename(from, to)
}

// syncDir fsyncs a directory, making the entries renamed into it durable.
func syncDir(dir string) error {
	d, err := openDisk(dir, os.O_RDONLY)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close() // the Sync error is the one to report
		return err
	}
	return d.Close()
}
