package serve

import (
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

// FailNextAppend makes the journal's next append of a record of the given
// kind ("deck", "spec", "samples", "checkpoint", "done") fail with
// ErrJournal, once. The server must have a StateDir.
func (s *Server) FailNextAppend(kind string) { s.journal.failNext.Store(&kind) }

// AppendFaultArmed reports whether a FailNextAppend has yet to fire.
func (s *Server) AppendFaultArmed() bool { return s.journal.failNext.Load() != nil }

// MaxBodyBytes is the admission bound on a deck.
const MaxBodyBytes = maxBodyBytes

// IBMDeck renders an IBM stand-in case to deck text (spec_test.go).
var IBMDeck = ibmDeck
