// Package circuit models linear circuits (the PDN substrate of MATEX):
// element netlists of resistors, capacitors, inductors, voltage and current
// sources, their assembly into the modified nodal analysis (MNA) form
//
//	C·x'(t) = -G·x(t) + B·u(t)
//
// and DC operating-point analysis. Grounded DC voltage supplies can be
// collapsed out of the unknown vector (the standard power-grid trick that
// keeps G symmetric positive definite), which is what the TAU power-grid
// contest solvers and MATEX both rely on.
package circuit

import (
	"fmt"

	"github.com/matex-sim/matex/internal/waveform"
)

// Ground is the reserved ground node name. "gnd" is accepted as an alias.
const Ground = "0"

// Resistor is a two-terminal resistance in ohms.
type Resistor struct {
	Name string
	A, B string
	R    float64
}

// Capacitor is a two-terminal capacitance in farads.
type Capacitor struct {
	Name string
	A, B string
	C    float64
}

// Inductor is a two-terminal inductance in henries. It adds a branch-current
// unknown to the MNA system.
type Inductor struct {
	Name string
	A, B string
	L    float64
}

// VSource is an independent voltage source; the voltage of Pos relative to
// Neg follows Wave.
type VSource struct {
	Name     string
	Pos, Neg string
	Wave     waveform.Waveform
}

// ISource is an independent current source; a positive value drives current
// from Pos through the source to Neg (SPICE convention).
type ISource struct {
	Name     string
	Pos, Neg string
	Wave     waveform.Waveform
}

// Circuit is an element-level netlist.
type Circuit struct {
	Title      string
	Resistors  []Resistor
	Capacitors []Capacitor
	Inductors  []Inductor
	VSources   []VSource
	ISources   []ISource
}

// New returns an empty circuit.
func New(title string) *Circuit { return &Circuit{Title: title} }

// AddR appends a resistor; R must be positive.
func (c *Circuit) AddR(name, a, b string, r float64) error {
	if r <= 0 {
		return fmt.Errorf("circuit: resistor %s has non-positive resistance %g", name, r)
	}
	c.Resistors = append(c.Resistors, Resistor{Name: name, A: a, B: b, R: r})
	return nil
}

// AddC appends a capacitor; C must be positive.
func (c *Circuit) AddC(name, a, b string, cap float64) error {
	if cap <= 0 {
		return fmt.Errorf("circuit: capacitor %s has non-positive capacitance %g", name, cap)
	}
	c.Capacitors = append(c.Capacitors, Capacitor{Name: name, A: a, B: b, C: cap})
	return nil
}

// AddL appends an inductor; L must be positive.
func (c *Circuit) AddL(name, a, b string, l float64) error {
	if l <= 0 {
		return fmt.Errorf("circuit: inductor %s has non-positive inductance %g", name, l)
	}
	c.Inductors = append(c.Inductors, Inductor{Name: name, A: a, B: b, L: l})
	return nil
}

// AddV appends a voltage source.
func (c *Circuit) AddV(name, pos, neg string, w waveform.Waveform) {
	c.VSources = append(c.VSources, VSource{Name: name, Pos: pos, Neg: neg, Wave: w})
}

// AddI appends a current source.
func (c *Circuit) AddI(name, pos, neg string, w waveform.Waveform) {
	c.ISources = append(c.ISources, ISource{Name: name, Pos: pos, Neg: neg, Wave: w})
}

// NumElements returns the total element count.
func (c *Circuit) NumElements() int {
	return len(c.Resistors) + len(c.Capacitors) + len(c.Inductors) + len(c.VSources) + len(c.ISources)
}

// groundNames are the names isGround accepts.
var groundNames = [...]string{Ground, "gnd", "GND"}

// isGround reports whether a node name denotes the ground node.
func isGround(name string) bool {
	return name == Ground || name == "gnd" || name == "GND"
}
