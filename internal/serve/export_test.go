package serve

import "github.com/matex-sim/matex/internal/circuit"

// Test-only windows onto the deck store for the external test package.

// DeckSystem returns the stamped system the store holds for an inline
// netlist, nil when the deck is not resident.
func (s *Server) DeckSystem(netlist string) *circuit.System {
	st := s.decks
	st.mu.Lock()
	defer st.mu.Unlock()
	if e := st.entries[netlistKey(netlist)]; e != nil && e.elem != nil {
		return e.d.sys
	}
	return nil
}

// SetDeckCapacity replaces the store's byte bound (production: maxBodyBytes).
func (s *Server) SetDeckCapacity(n int64) {
	s.decks.mu.Lock()
	s.decks.capacity = n
	s.decks.mu.Unlock()
}

// MaxBodyBytes is the admission bound on a deck.
const MaxBodyBytes = maxBodyBytes
