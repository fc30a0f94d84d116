package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"

	"github.com/matex-sim/matex"
)

// deckSpec names one generated input: an IBM stand-in grid from the root
// facade with the electrical overrides that decide which layer carries
// the run.
type deckSpec struct {
	ibm   string  // matex.IBMCase name
	scale float64 // grid edge multiplier
	cnode float64 // node capacitance in F; 0 keeps the stock 10 fF
}

var (
	// Stock capacitance: time constants far below the 100 ps bump
	// lattice, so the Krylov dimension stays ~4 and factorization, DC and
	// large-n triangular solves carry the run.
	deckStatic = deckSpec{ibm: "ibmpg6t", scale: 1.5}
	// 0.5 pF per node puts the mesh time constants at the segment scale:
	// m_a ~10, most spots on Arnoldi, factorization a few percent.
	deckDynamic = deckSpec{ibm: "ibmpg5t", scale: 1, cnode: 0.5e-12}
	// The four decks the service rotates.
	decksServe = []deckSpec{
		{ibm: "ibmpg3t", scale: 1},
		{ibm: "ibmpg1t", scale: 1},
		{ibm: "ibmpg2t", scale: 1},
		{ibm: "ibmpg2t", scale: 1, cnode: 0.5e-12},
	}
)

// build generates the deck for a seed. The grid, the pads and the set of
// bump shapes are the stock case's; every load's node and amplitude are
// redrawn from seed. Offsetting GridSpec.Seed instead would also redraw
// the bump shapes, which moves the transition-spot count — and with it
// the wall time — by +-10 % between seeds; this way seeds change the
// input (and the Krylov dimensions, by a percent or two) but not the
// number of steps, so runs on different seeds are comparable.
func (d deckSpec) build(seed int64) (*matex.Deck, error) {
	spec, err := matex.IBMCase(d.ibm, d.scale)
	if err != nil {
		return nil, err
	}
	if d.cnode > 0 {
		spec.CNode = d.cnode
	}
	ckt, err := spec.Build()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range ckt.ISources {
		src := &ckt.ISources[i]
		p, ok := src.Wave.(*matex.Pulse)
		if !ok {
			return nil, fmt.Errorf("load %s is not a pulse", src.Name)
		}
		q := *p
		q.V2 = spec.IPeak * (0.5 + rng.Float64())
		src.Wave = &q
		src.Pos = gridNode(rng.Intn(spec.NX), rng.Intn(spec.NY))
	}
	deck := &matex.Deck{Circuit: ckt, TranStep: 10e-12, TranStop: spec.Tstop}
	// Four probes along the grid diagonal, as cmd/pgbench places them.
	for i := 1; i <= 4; i++ {
		deck.Prints = append(deck.Prints, gridNode(i*spec.NX/5, i*spec.NY/5))
	}
	return deck, nil
}

// gridNode is the generated grids' node naming (layer_x_y).
func gridNode(x, y int) string { return fmt.Sprintf("n1_%d_%d", x, y) }

// writeDeck writes the deck as a SPICE-subset netlist.
func writeDeck(path string, deck *matex.Deck) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = matex.WriteNetlist(w, deck)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// sweepVariants builds the EXPERIMENTS.md corner set for a deck: four
// hot-spot families (family i puts 1.5x on hot load i and 0.75x on the
// rest), each at 0.875x and 1.25x global intensity — 8 variants that plan
// as 5 lanes. A load sitting on a pad node stamps no input, and naming it
// would be rejected as an unknown source, so such loads are left out.
func sweepVariants(ckt *matex.Circuit) ([]matex.SweepVariant, error) {
	fixed := map[string]bool{}
	for _, v := range ckt.VSources {
		fixed[v.Pos] = true
	}
	var loads []string
	for _, s := range ckt.ISources {
		if !fixed[s.Pos] {
			loads = append(loads, s.Name)
		}
	}
	const families = 4
	if len(loads) < families {
		return nil, fmt.Errorf("deck has only %d loads off the pads", len(loads))
	}
	var vs []matex.SweepVariant
	for i := 0; i < families; i++ {
		pattern := make(map[string]float64, len(loads))
		for j, name := range loads {
			pattern[name] = 0.75
			if j == i {
				pattern[name] = 1.5
			}
		}
		vs = append(vs,
			matex.SweepVariant{Name: fmt.Sprintf("p%dlo", i), Scale: 0.875, SourceScales: pattern},
			matex.SweepVariant{Name: fmt.Sprintf("p%dhi", i), Scale: 1.25, SourceScales: pattern})
	}
	return vs, nil
}

// writeVariants writes the variant file `matex -sweep` reads.
func writeVariants(path string, vs []matex.SweepVariant) error {
	b, err := json.Marshal(vs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// bake returns a copy of the deck with one variant's scales multiplied
// into the load amplitudes: the solo deck a sweep variant must reproduce.
func bake(deck *matex.Deck, v matex.SweepVariant) *matex.Deck {
	ckt := *deck.Circuit
	ckt.ISources = append(ckt.ISources[:0:0], ckt.ISources...)
	for i := range ckt.ISources {
		src := &ckt.ISources[i]
		k, named := v.SourceScales[src.Name]
		if !named {
			continue
		}
		q := *src.Wave.(*matex.Pulse)
		q.V2 *= v.Scale * k
		src.Wave = &q
	}
	out := *deck
	out.Circuit = &ckt
	return &out
}
