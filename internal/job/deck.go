package job

import (
	"strings"

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
	text        string       // the netlist a remote task carries, when kept (ParseDeck)
	tstop, step float64      // the .tran card (a case has no step)
	prints      []string     // the .print cards (netlists)
	nx, ny      int          // grid edges, for a case's per-job probe spread
}

// System is the deck's stamped system, shared read-only by every job on it.
func (d *Deck) System() *circuit.System { return d.sys }

// ParseDeck parses a SPICE-subset netlist and stamps it. With keepText the
// deck holds on to the text, which a distributed run posts to its workers
// with every task (Hooks.Workers); without it such tasks name no deck, and
// the workers refuse them.
func ParseDeck(text string, keepText bool) (*Deck, error) {
	nd, err := netlist.Parse(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	sys, err := nd.Build()
	if err != nil {
		return nil, err
	}
	d := &Deck{sys: sys, dsys: dist.NewSystem(sys), tstop: nd.TranStop, step: nd.TranStep, prints: nd.Prints}
	if keepText {
		d.text = text
	}
	return d, nil
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
