package job

import (
	"errors"
	"strings"
	"testing"

	"github.com/matex-sim/matex/internal/pdn"
	"github.com/matex-sim/matex/internal/sweep"
)

// limit is the admission bound the tests check specs against (matexsrv's).
const limit = 256 << 20

// smokeDeck is a netlist with a .tran step and a .print card.
const smokeDeck = `* smoke deck
R1 a b 1k
R2 b 0 2k
C1 b 0 1p
V1 a 0 1.8
i1 b 0 PULSE(0 1m 1n 0.1n 0.1n 2n 0)
.tran 10p 10n
.print tran v(b)
.end
`

// open takes a spec through either front end to its task: the service's
// (Check, then the inline netlist or the generated case) when file is
// empty, the CLI's (a deck read from a file, no admission bounds) otherwise.
func open(spec Spec, file string) (*Task, error) {
	var d *Deck
	var err error
	switch {
	case file != "":
		d, err = ParseDeck(file, false)
	case spec.Check(limit) != nil:
		return nil, spec.Check(limit)
	case spec.Case != "":
		d, _, err = GenerateDeck(spec.Case, spec.Scale)
	default:
		d, err = ParseDeck(spec.Netlist, false)
	}
	if err != nil {
		return nil, err
	}
	return spec.Resolve(d)
}

// TestOneRefusalTable: every spec the service refuses at submit, and the
// refusals the CLI shares with it, refused with the same error through
// either front end; the same specs with the offending part removed are
// accepted, so the table refuses for the reason it names. A deck named
// twice or by a malformed hash, a task spec's inputs (input 0 is a supply
// rail on both decks, the smoke deck's input 1 and the case's inputs from
// 30 on are loads) and "dc" off a task spec are refused with typed errors.
// What only a server can refuse — a hash it does not hold, a PUT deck —
// is in the serve HTTP tests (TestDeckAPIRefusals).
func TestOneRefusalTable(t *testing.T) {
	variants := []sweep.Variant{{Name: "typ"}, {Name: "hot", Scale: 1.5}}
	noStep := strings.Replace(smokeDeck, ".tran 10p 10n", ".tran 0 10n", 1)
	for _, tc := range []struct {
		name string
		spec Spec
		file string
		want string
		is   error
	}{
		{"no deck", Spec{}, "", "exactly one of netlist, case and deck", ErrDeckChoice},
		{"both decks", Spec{Netlist: "* x\n.end\n", Case: "ibmpg1t"}, "", "exactly one of netlist, case and deck", ErrDeckChoice},
		{"deck and netlist", Spec{Deck: DeckHash(smokeDeck), Netlist: smokeDeck}, "", "exactly one of netlist, case and deck", ErrDeckChoice},
		{"deck and case", Spec{Deck: DeckHash(smokeDeck), Case: "ibmpg1t"}, "", "exactly one of netlist, case and deck", ErrDeckChoice},
		{"short deck hash", Spec{Deck: "abc123"}, "", "not 6 characters", ErrDeckHash},
		{"deck hash not lowercase hex", Spec{Deck: strings.ToUpper(DeckHash(smokeDeck))}, "", "64 lowercase hex digits", ErrDeckHash},
		{"dc without inputs", Spec{Case: "ibmpg1t", DC: true}, "", "dc is only valid", ErrDCWithoutInputs},
		{"dc without inputs, CLI", Spec{DC: true}, smokeDeck, "dc is only valid", ErrDCWithoutInputs},
		{"bad method", Spec{Case: "ibmpg1t", Method: "simplex"}, "", `unknown method "simplex"`, nil},
		{"deleted method", Spec{Case: "ibmpg1t", Method: "fe"}, "", `unknown method "fe"`, nil},
		{"bad case", Spec{Case: "ibmpg9t"}, "", `unknown IBM case "ibmpg9t"`, nil},
		{"bad netlist", Spec{Netlist: "Rbroken 1\n"}, "", "netlist", nil},
		{"missing window", Spec{Netlist: "* t\nR1 a 0 1\nC1 a 0 1p\nI1 a 0 1m\n.end\n"}, "", "no simulation window", nil},
		{"fixed no step", Spec{Case: "ibmpg1t", Method: "tr"}, "", "needs step", nil},
		{"bad krylov", Spec{Case: "ibmpg1t", Krylov: "chebyshev"}, "", `unknown method "chebyshev"`, nil},
		{"bad ordering", Spec{Case: "ibmpg1t", Ordering: "amd2000"}, "", `unknown ordering "amd2000"`, nil},
		{"case too big", Spec{Case: "ibmpg6t", Scale: 1000}, "", "grid nodes; the limit is", nil},
		{"too many probes", Spec{Case: "ibmpg1t", NumProbes: 200000000}, "", "probes on a grid of 900 nodes", nil},
		{"too many variants", Spec{Case: "ibmpg1t", Variants: make([]sweep.Variant, MaxSweepVariants+1)}, "", "variants; the limit is", nil},
		{"sweep × distributed", Spec{Case: "ibmpg1t", Distributed: true, Variants: variants}, "", "cannot also be distributed", nil},
		{"sweep × distributed, CLI", Spec{Distributed: true, Variants: variants}, smokeDeck, "cannot also be distributed", nil},
		{"fixed no step, CLI", Spec{Method: "tr"}, noStep, "needs step", nil},
		{"fixed no step, distributed CLI", Spec{Method: "tr", Distributed: true}, noStep, "needs step", nil},
		{"bad method, CLI", Spec{Method: "be"}, smokeDeck, `unknown method "be"`, nil},
		{"unknown probe", Spec{}, strings.Replace(smokeDeck, "v(b)", "v(nowhere)", 1), "nowhere", nil},
		{"input out of range", Spec{Case: "ibmpg1t", Inputs: []int{30, 130}}, "", "130 (the deck has 130 inputs)", ErrInputRange},
		{"negative input", Spec{Case: "ibmpg1t", Inputs: []int{-1}}, "", "-1", ErrInputRange},
		{"input out of range, CLI", Spec{Inputs: []int{2}}, smokeDeck, "2 (the deck has 2 inputs)", ErrInputRange},
		{"input repeated", Spec{Case: "ibmpg1t", Inputs: []int{30, 31, 30}}, "", "repeated: 30", ErrInputRepeated},
		{"input repeated, CLI", Spec{Inputs: []int{1, 1}}, smokeDeck, "repeated: 1", ErrInputRepeated},
		{"supply input", Spec{Case: "ibmpg1t", Inputs: []int{30, 0}}, "", "supply: 0", ErrInputSupply},
		{"supply input, CLI", Spec{Inputs: []int{0}}, smokeDeck, "supply: 0 (R1.rail)", ErrInputSupply},
		{"inputs × distributed", Spec{Case: "ibmpg1t", Inputs: []int{30}, Distributed: true}, "", "cannot also be", ErrInputsAlone},
		{"inputs × sweep", Spec{Case: "ibmpg1t", Inputs: []int{30}, Variants: variants}, "", "cannot also be", ErrInputsAlone},
		{"inputs × distributed, CLI", Spec{Inputs: []int{1}, Distributed: true}, smokeDeck, "cannot also be", ErrInputsAlone},
	} {
		_, err := open(tc.spec, tc.file)
		if err == nil || !strings.Contains(err.Error(), tc.want) || tc.is != nil && !errors.Is(err, tc.is) {
			t.Errorf("%s: got %v, want an error containing %q (is %v)", tc.name, err, tc.want, tc.is)
		}
	}

	for _, tc := range []struct {
		name string
		spec Spec
		file string
	}{
		{"case", Spec{Case: "ibmpg1t", NumProbes: 900}, ""},
		{"fixed step on a case", Spec{Case: "ibmpg1t", Method: "tr", Step: 1e-11}, ""},
		{"sweep", Spec{Case: "ibmpg1t", Variants: variants}, ""},
		{"distributed", Spec{Case: "ibmpg1t", Distributed: true}, ""},
		{"fixed step, CLI", Spec{Method: "tr", Distributed: true}, smokeDeck},
		{"fixed step on a flag, CLI", Spec{Method: "tr", Step: 1e-11}, noStep},
		{"sweep, CLI", Spec{Variants: variants}, smokeDeck},
		{"task", Spec{Case: "ibmpg1t", Inputs: []int{31, 30, 129}}, ""},
		{"task, CLI", Spec{Inputs: []int{1}}, smokeDeck},
		{"task carrying the DC point", Spec{Case: "ibmpg1t", Inputs: []int{30}, DC: true}, ""},
		{"task carrying the DC point, CLI", Spec{Inputs: []int{1}, DC: true}, smokeDeck},
	} {
		if _, err := open(tc.spec, tc.file); err != nil {
			t.Errorf("%s: refused: %v", tc.name, err)
		}
	}
}

// TestResolveDefaults: the window and step default from the .tran card, a
// deck without .print cards probes its first node, a case spreads its probes
// along the diagonal, and a supply rail is skipped, not probed.
func TestResolveDefaults(t *testing.T) {
	task, err := open(Spec{}, smokeDeck)
	if err != nil {
		t.Fatal(err)
	}
	if task.tstop != 10e-9 || task.step != 10e-12 || len(task.Names) != 1 || task.Names[0] != "b" {
		t.Fatalf("tstop %g step %g probes %v, want the .tran card's 1e-08/1e-11 and v(b)", task.tstop, task.step, task.Names)
	}
	if task, err = open(Spec{Tstop: 5e-9, Step: 5e-12}, smokeDeck); err != nil || task.tstop != 5e-9 || task.step != 5e-12 {
		t.Fatalf("the spec's window did not override the card's (%v)", err)
	}

	bare := strings.Replace(smokeDeck, ".print tran v(b)\n", "", 1)
	if task, err = open(Spec{}, bare); err != nil || len(task.Names) != 1 {
		t.Fatalf("no .print card: probes %v (%v), want the first node", task.Names, err)
	}

	task, err = open(Spec{Case: "ibmpg1t", NumProbes: 3}, "")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{pdn.NodeName(7, 7), pdn.NodeName(15, 15), pdn.NodeName(22, 22)}
	if strings.Join(task.Names, " ") != strings.Join(want, " ") {
		t.Fatalf("case probes %v, want the diagonal %v", task.Names, want)
	}

	rail := strings.Replace(smokeDeck, ".print tran v(b)", ".print tran v(a) v(b)", 1)
	if task, err = open(Spec{}, rail); err != nil || len(task.Skipped) != 1 || task.Skipped[0] != "a" || len(task.Names) != 1 {
		t.Fatalf("a probe on the supply rail: names %v skipped %v (%v)", task.Names, task.Skipped, err)
	}
}

// TestCaseChargeBound: Check's bound on a case's deck-store charge is never
// below what GenerateDeck charges, so a case that passes Check fits the
// store; the paper's 1.6 M-node grids pass.
func TestCaseChargeBound(t *testing.T) {
	for _, name := range pdn.IBMSuite() {
		for _, scale := range []float64{0.25, 1, 1.5} {
			_, size, err := GenerateDeck(name, scale)
			if err != nil {
				t.Fatal(err)
			}
			spec := Spec{Case: name, Scale: scale}
			if err := spec.Check(size - 1); err == nil || !strings.Contains(err.Error(), "grid nodes") {
				t.Errorf("%s at %g is charged %d bytes, but Check admits it under %d: %v", name, scale, size, size-1, err)
			}
			if err := spec.Check(2 * size); err != nil {
				t.Errorf("%s at %g: the bound is over twice the charge: %v", name, scale, err)
			}
		}
	}
	if err := (&Spec{Case: "ibmpg6t", Scale: 14.06}).Check(limit); err != nil {
		t.Fatalf("a 1.6 M-node grid: %v", err)
	}
}
