package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/waveform"
)

// fnum formats a float with the shortest decimal string that parses back
// to exactly the same float64. The writer used to round through %.12g,
// which silently perturbed values needing all 17 significant digits — a
// Write→Parse round trip then no longer reproduced the Deck bit for bit
// (the property the round-trip tests pin down).
func fnum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Write emits the deck as a SPICE netlist readable by Parse (and by SPICE
// itself for the card subset used here). Numeric values round-trip
// exactly: re-parsing the output reproduces the same element values,
// source parameters and .tran window bit for bit.
func Write(w io.Writer, deck *Deck) error {
	bw := bufio.NewWriter(w)
	c := deck.Circuit
	title := c.Title
	if title == "" {
		title = "netlist"
	}
	fmt.Fprintf(bw, "* %s\n", title)
	for _, e := range c.Resistors {
		fmt.Fprintf(bw, "%s %s %s %s\n", e.Name, e.A, e.B, fnum(e.R))
	}
	for _, e := range c.Capacitors {
		fmt.Fprintf(bw, "%s %s %s %s\n", e.Name, e.A, e.B, fnum(e.C))
	}
	for _, e := range c.Inductors {
		fmt.Fprintf(bw, "%s %s %s %s\n", e.Name, e.A, e.B, fnum(e.L))
	}
	for _, e := range c.VSources {
		fmt.Fprintf(bw, "%s %s %s %s\n", e.Name, e.Pos, e.Neg, formatWave(e.Wave))
	}
	for _, e := range c.ISources {
		fmt.Fprintf(bw, "%s %s %s %s\n", e.Name, e.Pos, e.Neg, formatWave(e.Wave))
	}
	if deck.TranStop > 0 {
		fmt.Fprintf(bw, ".tran %s %s\n", fnum(deck.TranStep), fnum(deck.TranStop))
	}
	for _, p := range deck.Prints {
		fmt.Fprintf(bw, ".print tran v(%s)\n", p)
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

func formatWave(w waveform.Waveform) string {
	switch s := w.(type) {
	case waveform.DC:
		return fnum(float64(s))
	case *waveform.Pulse:
		return fmt.Sprintf("PULSE(%s %s %s %s %s %s %s)",
			fnum(s.V1), fnum(s.V2), fnum(s.Delay), fnum(s.Rise), fnum(s.Fall), fnum(s.Width), fnum(s.Period))
	case *waveform.PWL:
		out := "PWL("
		for i := range s.T {
			if i > 0 {
				out += " "
			}
			out += fnum(s.T[i]) + " " + fnum(s.V[i])
		}
		return out + ")"
	case *waveform.Sin:
		return fmt.Sprintf("SIN(%s %s %s %s %s)", fnum(s.VO), fnum(s.VA), fnum(s.Freq), fnum(s.Delay), fnum(s.Theta))
	case *waveform.Exp:
		return fmt.Sprintf("EXP(%s %s %s %s %s %s)", fnum(s.V1), fnum(s.V2), fnum(s.TD1), fnum(s.Tau1), fnum(s.TD2), fnum(s.Tau2))
	default:
		return fnum(w.Value(0))
	}
}

// Build stamps the deck's circuit with power-grid defaults (supplies
// collapsed) and returns the MNA system.
func (d *Deck) Build() (*circuit.System, error) {
	return circuit.Stamp(d.Circuit, circuit.StampOptions{CollapseSupplies: true})
}
