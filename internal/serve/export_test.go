package serve

import (
	"bytes"
	"fmt"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/job"
	"github.com/matex-sim/matex/internal/memo"
)

// Test-only windows onto the deck store for the external test package.

// DeckSystem returns the stamped system the store holds for an inline
// netlist, nil when the deck is not resident.
func (s *Server) DeckSystem(netlist string) *circuit.System {
	if d, ok := s.decks.Peek(job.DeckHash(netlist)); ok {
		return d.System()
	}
	return nil
}

// SetDeckCapacity replaces the deck store with an empty one bounded to n
// bytes (production: maxBodyBytes). Call it before the first submission.
func (s *Server) SetDeckCapacity(n int64) {
	s.decks = memo.New[string, *job.Deck](memo.NewBudget(n))
}

// DiskOp is one operation the journal performs on disk, as its fault seam
// sees it: Op is "open", "write", "sync", "truncate", "close" or "rename",
// Path the file or directory it acts on (a rename's target), Data a write's
// bytes.
type DiskOp struct {
	Op, Path string
	Data     []byte
}

// SetDiskFault puts fault under every operation the journal performs on disk
// until the returned function is called: an error it returns fails the
// operation in its place. One fault is set at a time, process-wide.
func SetDiskFault(fault func(DiskOp) error) (clear func()) {
	fn := func(op, path string, data []byte) error { return fault(DiskOp{op, path, data}) }
	diskFault.Store(&fn)
	return func() { diskFault.CompareAndSwap(&fn, nil) }
}

// RecordKind is the kind of the journal record a write carries ("deck",
// "spec", "samples", "checkpoint", "done"), "" when it does not start one.
func RecordKind(data []byte) string {
	rest, ok := bytes.CutPrefix(data, []byte(`{"rec":"`))
	if !ok {
		return ""
	}
	kind, _, _ := bytes.Cut(rest, []byte(`"`))
	return string(kind)
}

// FailNextAppend makes the journal's next write of a record of the given
// kind fail with ErrJournal, once: a fault on the server's append handle,
// cleared as it fires. The server must have a StateDir.
func (s *Server) FailNextAppend(kind string) {
	path := s.journal.f.f.Name()
	var fn func(op, path string, data []byte) error
	fn = func(op, p string, data []byte) error {
		if op != "write" || p != path || RecordKind(data) != kind || !diskFault.CompareAndSwap(&fn, nil) {
			return nil
		}
		return fmt.Errorf("injected fault on a %s record", kind)
	}
	diskFault.Store(&fn)
}

// AppendFaultArmed reports whether a FailNextAppend has yet to fire.
func (s *Server) AppendFaultArmed() bool { return diskFault.Load() != nil }

// MaxBodyBytes is the admission bound on a deck.
const MaxBodyBytes = maxBodyBytes

// IBMDeck renders an IBM stand-in case to deck text (spec_test.go).
var IBMDeck = ibmDeck
