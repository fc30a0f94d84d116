package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/dist"
	"github.com/matex-sim/matex/internal/netlist"
	"github.com/matex-sim/matex/internal/pdn"
)

// maxBodyBytes is the one admission bound on a deck: the HTTP layer refuses
// a larger submission body, Submit a longer inline netlist, and the deck
// store's capacity and the journal reader's record limit are derived from
// it — so whatever was accepted also fits the store alone and replays. The
// big IBM decks are tens of megabytes; the limit is generous without being
// unbounded.
const maxBodyBytes = 256 << 20

// ErrDeckMissing marks a journaled job whose spec references a deck the
// journal does not hold (a torn or truncated deck record): the job is
// restored as failed with this error, never run on a guess.
var ErrDeckMissing = errors.New("serve: journaled deck body is missing")

// deck is one input deck as every job on it sees it: the stamped MNA system
// and what JobSpec.build reads off the deck's cards. It is immutable once
// built — jobs, sweep lanes and D-MATEX tasks only read the system — so one
// value serves every job on the same content, concurrently.
//
// The server's deck store (Server.decks) holds decks under their content
// identity: the hex SHA-256 of an inline netlist's text (also the journal's
// deck hash), or "case:<name>@<scale>" for a pgbench case. A collision would
// be a silently wrong waveform, hence a cryptographic hash. A deck is charged
// the netlist's source bytes, or the matrices' for a generated case.
type deck struct {
	sys         *circuit.System
	dsys        *dist.System // sys as a distributed job hands it to its pool
	tstop, step float64      // the .tran card (a case has no step)
	prints      []string     // the .print cards (inline decks)
	nx, ny      int          // grid edges, for a case's per-job probe spread
}

// netlistKey is the content hash of an inline deck.
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

// caseKey is the identity of a generated pgbench case.
func caseKey(name string, scale float64) string {
	return fmt.Sprintf("case:%s@%g", name, scaleOrOne(scale))
}

// parseDeck parses and stamps an inline netlist; it is charged its text.
func parseDeck(text string) (*deck, int64, error) {
	nd, err := netlist.Parse(strings.NewReader(text))
	if err != nil {
		return nil, 0, err
	}
	sys, err := nd.Build()
	if err != nil {
		return nil, 0, err
	}
	return &deck{sys: sys, dsys: dist.NewSystem(sys),
		tstop: nd.TranStop, step: nd.TranStep, prints: nd.Prints}, int64(len(text)), nil
}

// generateDeck builds and stamps a pgbench case. With no source text to
// count, it is charged its stored matrix entries (index + value).
func generateDeck(name string, scale float64) (*deck, int64, error) {
	gspec, err := pdn.IBMCase(name, scaleOrOne(scale))
	if err != nil {
		return nil, 0, err
	}
	ckt, err := gspec.Build()
	if err != nil {
		return nil, 0, err
	}
	sys, err := circuit.Stamp(ckt, circuit.StampOptions{CollapseSupplies: true})
	if err != nil {
		return nil, 0, err
	}
	size := int64(sys.C.NNZ()+sys.G.NNZ()) * 16
	return &deck{sys: sys, dsys: dist.NewSystem(sys), tstop: gspec.Tstop, nx: gspec.NX, ny: gspec.NY}, size, nil
}
