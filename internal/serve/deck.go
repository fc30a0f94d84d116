package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
)

// maxBodyBytes is the one admission bound on a deck: the HTTP layer refuses
// a larger submission body, Submit a longer inline netlist or a larger
// pgbench case (job.Spec.Check), and the deck store's capacity and the
// journal reader's record limit are derived from it — so whatever was
// accepted also fits the store alone and replays. The big IBM decks are tens
// of megabytes; the limit is generous without being unbounded.
const maxBodyBytes = 256 << 20

// ErrDeckMissing marks a journaled job whose spec references a deck the
// journal does not hold (a torn or truncated deck record): the job is
// restored as failed with this error, never run on a guess.
var ErrDeckMissing = errors.New("serve: journaled deck body is missing")

// netlistKey is the content hash of an inline deck: its key in the deck
// store (Server.decks, which charges it the text's bytes) and the journal's
// deck hash. A collision would be a silently wrong waveform, hence a
// cryptographic hash.
func netlistKey(text string) string {
	h := sha256.New()
	var window [16 << 10]byte // no deck-sized []byte copy of the string per submission
	for len(text) > 0 {
		n := copy(window[:], text)
		h.Write(window[:n]) //matex:err-ok(hash.Hash.Write never returns an error)
		text = text[n:]
	}
	return hex.EncodeToString(h.Sum(nil))
}

// caseKey is a generated pgbench case's key in the deck store, which charges
// it its matrices' bytes (scale 0 is 1).
func caseKey(name string, scale float64) string {
	if scale <= 0 {
		scale = 1
	}
	return fmt.Sprintf("case:%s@%g", name, scale)
}
