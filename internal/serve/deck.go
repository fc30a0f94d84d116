package serve

import (
	"errors"
	"fmt"
)

// maxBodyBytes is the one admission bound on a deck: the HTTP layer refuses
// a larger submission or PUT body, Submit a longer inline netlist or a
// larger pgbench case (job.Spec.Check), and the deck store's capacity and
// the journal reader's record limit are derived from it — so whatever was
// accepted also fits the store alone and replays. The big IBM decks are tens
// of megabytes; the limit is generous without being unbounded.
const maxBodyBytes = 256 << 20

// The deck errors. Every inline netlist and PUT deck is keyed by its content
// hash (job.DeckHash) in the deck store (Server.decks, which charges it the
// text's bytes) and in the journal.
var (
	// ErrDeckMissing marks a journaled job whose spec references a deck the
	// journal does not hold (a torn or truncated deck record): the job is
	// restored as failed with this error, never run on a guess.
	ErrDeckMissing = errors.New("serve: journaled deck body is missing")
	// ErrUnknownDeck is a hash the server does not hold — a spec's "deck",
	// or GET /v1/decks/{hash} (404). A durable server holds only what its
	// journal does, so a restart forgets what no live job is on.
	ErrUnknownDeck = errors.New("serve: unknown deck")
	// ErrDeckMismatch is a PUT /v1/decks/{hash} body that does not hash to
	// the path's {hash} (400).
	ErrDeckMismatch = errors.New("serve: deck text does not match its hash")
)

// caseKey is a generated pgbench case's key in the deck store, which charges
// it its matrices' bytes (scale 0 is 1).
func caseKey(name string, scale float64) string {
	if scale <= 0 {
		scale = 1
	}
	return fmt.Sprintf("case:%s@%g", name, scale)
}
