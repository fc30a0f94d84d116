package job

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/dist"
	"github.com/matex-sim/matex/internal/netlist"
	"github.com/matex-sim/matex/internal/pdn"
)

// Deck is one input deck as every job on it sees it: the stamped MNA system
// and what Resolve reads off the deck's cards. It is immutable once built —
// jobs, sweep lanes and D-MATEX tasks only read the system — so one value
// serves every job on the same content, concurrently.
type Deck struct {
	sys         *circuit.System
	dsys        *dist.System // sys as a distributed job hands it to its pool
	text        string       // the netlist a worker that lacks the deck is sent, when kept (ParseDeck)
	hash        string       // DeckHash(text), when the text is kept
	tstop, step float64      // the .tran card (a case has no step)
	prints      []string     // the .print cards (netlists)
	nx, ny      int          // grid edges, for a case's per-job probe spread
}

// System is the deck's stamped system, shared read-only by every job on it.
func (d *Deck) System() *circuit.System { return d.sys }

// ParseDeck parses a SPICE-subset netlist and stamps it. With keepText the
// deck holds on to the text and its hash: a distributed run's tasks name the
// deck by that hash, and a worker that does not hold it is sent the text
// once (Hooks.Workers); without it such tasks name no deck, and the workers
// refuse them. The hash is taken on a goroutine of its own while the deck
// is stamped.
func ParseDeck(text string, keepText bool) (*Deck, error) {
	nd, err := netlist.ParseString(text)
	if err != nil {
		return nil, err
	}
	var hash chan string
	if keepText {
		hash = make(chan string, 1)
		go func() { hash <- DeckHash(text) }()
	}
	sys, err := nd.Build()
	if err != nil {
		return nil, err
	}
	d := &Deck{sys: sys, dsys: dist.NewSystem(sys), tstop: nd.TranStop, step: nd.TranStep, prints: nd.Prints}
	if keepText {
		d.text, d.hash = text, <-hash
	}
	return d, nil
}

// DeckHash is a netlist's content hash, the hex SHA-256 of its text: what a
// spec's Deck names, a server's deck store and journal key the text by, and
// PUT /v1/decks/{hash} checks an upload against. A collision would be a
// silently wrong waveform, hence a cryptographic hash.
func DeckHash(text string) string {
	h := sha256.New()
	var window [16 << 10]byte // no deck-sized []byte copy of the string
	for len(text) > 0 {
		n := copy(window[:], text)
		h.Write(window[:n]) // hash.Hash.Write never returns an error
		text = text[n:]
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CheckDeckHash refuses a string that is not a deck hash as DeckHash
// spells one: 64 lowercase hex digits.
func CheckDeckHash(h string) error {
	if len(h) != 2*sha256.Size {
		return fmt.Errorf("%w, not %d characters", ErrDeckHash, len(h))
	}
	for i := 0; i < len(h); i++ {
		if c := h[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("%w, not %q at %d", ErrDeckHash, c, i)
		}
	}
	return nil
}

// GenerateDeck builds and stamps a pgbench case. With no source text to
// count, it is charged its stored matrix entries (index + value).
func GenerateDeck(name string, scale float64) (*Deck, int64, error) {
	gspec, err := pdn.IBMCase(name, scale)
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
	return &Deck{sys: sys, dsys: dist.NewSystem(sys), tstop: gspec.Tstop, nx: gspec.NX, ny: gspec.NY}, size, nil
}
