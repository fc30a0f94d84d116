package circuit

import (
	"fmt"

	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/waveform"
)

// Input is one column of the MNA input term B·u(t): a sparse stamping pattern
// (Rows, Coefs) driven by a scalar waveform.
type Input struct {
	Rows  []int
	Coefs []float64
	Wave  waveform.Waveform
	// Supply marks DC voltage-supply contributions; MATEX keeps supplies in
	// the DC subtask and distributes only the load currents.
	Supply bool
	// Name is the originating element, for diagnostics.
	Name string
}

// System is the assembled MNA description C·x' = -G·x + B·u(t).
type System struct {
	N        int // total unknowns: free nodes + inductor currents + V-source currents
	NumNodes int // leading unknowns that are node voltages
	C, G     *sparse.CSC
	Inputs   []Input

	// nodeIndex maps node names to unknown indices; collapsed supply nodes
	// map into fixedValue instead.
	nodeIndex  map[string]int
	fixedValue map[string]float64
	title      string
}

// StampOptions controls MNA assembly.
type StampOptions struct {
	// CollapseSupplies removes grounded DC voltage sources from the unknown
	// vector, folding their effect into the right-hand side. This keeps G
	// symmetric (and typically positive definite) for RC power grids.
	CollapseSupplies bool
	// Gmin, when positive, adds a tiny conductance from every node to ground,
	// guarding against floating nodes. Zero disables it.
	Gmin float64
}

// Stamp assembles the MNA system from the circuit.
func Stamp(c *Circuit, opts StampOptions) (*System, error) {
	s := &System{
		nodeIndex:  make(map[string]int),
		fixedValue: make(map[string]float64),
		title:      c.Title,
	}

	// Pass 1: identify collapsed supply nodes.
	collapsedSrc := make([]bool, len(c.VSources))
	if opts.CollapseSupplies {
		for i, v := range c.VSources {
			dc, ok := v.Wave.(waveform.DC)
			if !ok {
				continue
			}
			switch {
			case isGround(v.Neg) && !isGround(v.Pos):
				if prev, dup := s.fixedValue[v.Pos]; dup && prev != float64(dc) {
					return nil, fmt.Errorf("circuit: node %s pinned to conflicting voltages %g and %g", v.Pos, prev, float64(dc))
				}
				s.fixedValue[v.Pos] = float64(dc)
				collapsedSrc[i] = true
			case isGround(v.Pos) && !isGround(v.Neg):
				if prev, dup := s.fixedValue[v.Neg]; dup && prev != -float64(dc) {
					return nil, fmt.Errorf("circuit: node %s pinned to conflicting voltages %g and %g", v.Neg, prev, -float64(dc))
				}
				s.fixedValue[v.Neg] = -float64(dc)
				collapsedSrc[i] = true
			}
		}
	}

	// Pass 2: number the free nodes in first-use order.
	intern := func(name string) int {
		if isGround(name) {
			return -1
		}
		if _, fixed := s.fixedValue[name]; fixed {
			return -2
		}
		if idx, ok := s.nodeIndex[name]; ok {
			return idx
		}
		idx := len(s.nodeIndex)
		s.nodeIndex[name] = idx
		return idx
	}
	// Every terminal is looked up here, once: refs holds what intern said, in
	// forEachNode order, and the stamping loops below walk it in step.
	refs := make([]int, 0, 2*c.NumElements())
	forEachNode(c, func(name string) { refs = append(refs, intern(name)) })
	s.NumNodes = len(s.nodeIndex)

	// Extra unknowns: inductor currents, then uncollapsed V-source currents.
	n := s.NumNodes
	indIdx := make([]int, len(c.Inductors))
	for i := range c.Inductors {
		indIdx[i] = n
		n++
	}
	vsrcIdx := make([]int, len(c.VSources))
	for i := range c.VSources {
		if collapsedSrc[i] {
			vsrcIdx[i] = -1
			continue
		}
		vsrcIdx[i] = n
		n++
	}
	s.N = n

	// Sized from the element counts (an upper bound: a grounded or pinned
	// terminal stamps less).
	gStamps := 4 * (len(c.Resistors) + len(c.Inductors) + len(c.VSources))
	if opts.Gmin > 0 {
		gStamps += s.NumNodes
	}
	gT := sparse.NewTriplet(n, n)
	gT.Grow(gStamps)
	cT := sparse.NewTriplet(n, n)
	cT.Grow(4*len(c.Capacitors) + len(c.Inductors))

	// nodeOf resolves the next terminal, which is name's, to (index, fixed
	// voltage, kind).
	nodeOf := func(name string) (idx int, fixed float64, isFixed bool) {
		ref := refs[0]
		refs = refs[1:]
		if ref == -2 {
			return -1, s.fixedValue[name], true
		}
		return ref, 0, false // ground is -1
	}

	// Resistors.
	for _, r := range c.Resistors {
		g := 1 / r.R
		ai, av, afix := nodeOf(r.A)
		bi, bv, bfix := nodeOf(r.B)
		stampConductance(gT, s, ai, bi, g, afix, av, bfix, bv, r.Name)
	}
	// Gmin leak.
	if opts.Gmin > 0 {
		for i := 0; i < s.NumNodes; i++ {
			gT.Add(i, i, opts.Gmin)
		}
	}

	// Capacitors: a capacitor to a fixed DC rail behaves like a capacitor to
	// ground for the dynamics (the rail voltage is constant).
	for _, cap := range c.Capacitors {
		ai, _, afix := nodeOf(cap.A)
		bi, _, bfix := nodeOf(cap.B)
		switch {
		case ai >= 0 && bi >= 0:
			cT.Add(ai, ai, cap.C)
			cT.Add(bi, bi, cap.C)
			cT.Add(ai, bi, -cap.C)
			cT.Add(bi, ai, -cap.C)
		case ai >= 0:
			cT.Add(ai, ai, cap.C)
			_ = bfix
		case bi >= 0:
			cT.Add(bi, bi, cap.C)
			_ = afix
		}
	}

	// Inductors: branch current unknown iL with L·diL/dt = vA - vB.
	for k, l := range c.Inductors {
		iL := indIdx[k]
		ai, av, afix := nodeOf(l.A)
		bi, bv, bfix := nodeOf(l.B)
		cT.Add(iL, iL, l.L)
		// KCL: current iL leaves node A, enters node B.
		if ai >= 0 {
			gT.Add(ai, iL, 1)
			gT.Add(iL, ai, -1)
		}
		if bi >= 0 {
			gT.Add(bi, iL, -1)
			gT.Add(iL, bi, 1)
		}
		// Fixed rails contribute constant voltage to the branch equation.
		if afix && av != 0 {
			s.Inputs = append(s.Inputs, Input{
				Rows: []int{iL}, Coefs: []float64{av}, Wave: waveform.DC(1), Supply: true, Name: l.Name + ".railA",
			})
		}
		if bfix && bv != 0 {
			s.Inputs = append(s.Inputs, Input{
				Rows: []int{iL}, Coefs: []float64{-bv}, Wave: waveform.DC(1), Supply: true, Name: l.Name + ".railB",
			})
		}
	}

	// Voltage sources (uncollapsed).
	for k, v := range c.VSources {
		iv := vsrcIdx[k]
		ai, av, afix := nodeOf(v.Pos)
		bi, bv, bfix := nodeOf(v.Neg)
		if iv < 0 {
			continue
		}
		if ai >= 0 {
			gT.Add(ai, iv, 1)
			gT.Add(iv, ai, 1)
		}
		if bi >= 0 {
			gT.Add(bi, iv, -1)
			gT.Add(iv, bi, -1)
		}
		rows := []int{iv}
		coefs := []float64{1}
		s.Inputs = append(s.Inputs, Input{Rows: rows, Coefs: coefs, Wave: v.Wave, Supply: isDC(v.Wave), Name: v.Name})
		// Fixed rails shift the branch equation constant.
		if afix && av != 0 {
			s.Inputs = append(s.Inputs, Input{Rows: []int{iv}, Coefs: []float64{-av}, Wave: waveform.DC(1), Supply: true, Name: v.Name + ".railP"})
		}
		if bfix && bv != 0 {
			s.Inputs = append(s.Inputs, Input{Rows: []int{iv}, Coefs: []float64{bv}, Wave: waveform.DC(1), Supply: true, Name: v.Name + ".railN"})
		}
	}

	// Current sources: positive current flows Pos -> Neg through the source,
	// i.e. it is drawn out of Pos and injected into Neg.
	for _, src := range c.ISources {
		ai, _, _ := nodeOf(src.Pos)
		bi, _, _ := nodeOf(src.Neg)
		var rows []int
		var coefs []float64
		if ai >= 0 {
			rows = append(rows, ai)
			coefs = append(coefs, -1)
		}
		if bi >= 0 {
			rows = append(rows, bi)
			coefs = append(coefs, 1)
		}
		if len(rows) == 0 {
			continue // both terminals grounded/fixed: no effect on unknowns
		}
		s.Inputs = append(s.Inputs, Input{Rows: rows, Coefs: coefs, Wave: src.Wave, Supply: isDC(src.Wave), Name: src.Name})
	}

	if len(refs) != 0 {
		panic("circuit: Stamp resolved a terminal it did not stamp")
	}
	s.G = gT.ToCSC()
	s.C = cT.ToCSC()
	return s, nil
}

// stampConductance stamps a conductance g between nodes ai and bi (index -1
// means ground or fixed). Connections to fixed rails become DC inputs.
func stampConductance(gT *sparse.Triplet, s *System, ai, bi int, g float64, afix bool, av float64, bfix bool, bv float64, name string) {
	switch {
	case ai >= 0 && bi >= 0:
		gT.Add(ai, ai, g)
		gT.Add(bi, bi, g)
		gT.Add(ai, bi, -g)
		gT.Add(bi, ai, -g)
	case ai >= 0:
		gT.Add(ai, ai, g)
		if bfix && bv != 0 {
			s.Inputs = append(s.Inputs, Input{Rows: []int{ai}, Coefs: []float64{g * bv}, Wave: waveform.DC(1), Supply: true, Name: name + ".rail"})
		}
	case bi >= 0:
		gT.Add(bi, bi, g)
		if afix && av != 0 {
			s.Inputs = append(s.Inputs, Input{Rows: []int{bi}, Coefs: []float64{g * av}, Wave: waveform.DC(1), Supply: true, Name: name + ".rail"})
		}
	}
}

// forEachNode visits every node name in the circuit.
func forEachNode(c *Circuit, fn func(string)) {
	for _, e := range c.Resistors {
		fn(e.A)
		fn(e.B)
	}
	for _, e := range c.Capacitors {
		fn(e.A)
		fn(e.B)
	}
	for _, e := range c.Inductors {
		fn(e.A)
		fn(e.B)
	}
	for _, e := range c.VSources {
		fn(e.Pos)
		fn(e.Neg)
	}
	for _, e := range c.ISources {
		fn(e.Pos)
		fn(e.Neg)
	}
}

func isDC(w waveform.Waveform) bool {
	_, ok := w.(waveform.DC)
	return ok
}

// EvalB accumulates dst = Σ B_k·u_k(t) over the inputs with active[k] true.
// active == nil means all inputs. dst is zeroed first.
func (s *System) EvalB(t float64, dst []float64, active []bool) {
	if len(dst) != s.N {
		panic("circuit: EvalB dimension mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	for k := range s.Inputs {
		if active != nil && !active[k] {
			continue
		}
		in := &s.Inputs[k]
		u := in.Wave.Value(t)
		if u == 0 {
			continue
		}
		for j, r := range in.Rows {
			dst[r] += in.Coefs[j] * u
		}
	}
}

// Waves returns the waveforms of all inputs, aligned with s.Inputs.
func (s *System) Waves() []waveform.Waveform {
	ws := make([]waveform.Waveform, len(s.Inputs))
	for i := range s.Inputs {
		ws[i] = s.Inputs[i].Wave
	}
	return ws
}

// GTS returns the global transition spots of all inputs over [0, tstop].
func (s *System) GTS(tstop float64) []float64 {
	return waveform.GTS(s.Waves(), tstop)
}

// NodeIndex returns the unknown index of the named node, or -1 with a fixed
// voltage when the node was collapsed onto a supply rail, or an error for an
// unknown name.
func (s *System) NodeIndex(name string) (idx int, fixed float64, isFixed bool, err error) {
	if isGround(name) {
		return -1, 0, true, nil
	}
	if v, ok := s.fixedValue[name]; ok {
		return -1, v, true, nil
	}
	if idx, ok := s.nodeIndex[name]; ok {
		return idx, 0, false, nil
	}
	return 0, 0, false, fmt.Errorf("circuit: unknown node %q", name)
}

// ResolveProbes maps probe node names onto unknown indices, dropping
// nodes collapsed onto supply rails (they carry no waveform). It returns
// the indices, the names actually kept (aligned with the indices), and
// the names skipped — the probe half of internal/job's Resolve, which the
// CLI and the service share. An unknown name is an error.
func (s *System) ResolveProbes(names []string) (idx []int, kept, skipped []string, err error) {
	for _, name := range names {
		i, _, fixed, err := s.NodeIndex(name)
		if err != nil {
			return nil, nil, nil, err
		}
		if fixed {
			skipped = append(skipped, name)
			continue
		}
		idx = append(idx, i)
		kept = append(kept, name)
	}
	return idx, kept, skipped, nil
}

// NodeNames returns the free node names indexed by unknown number.
func (s *System) NodeNames() []string {
	names := make([]string, s.NumNodes)
	for name, idx := range s.nodeIndex {
		names[idx] = name
	}
	return names
}

// Voltage extracts the named node's voltage from a solution vector,
// resolving collapsed rails to their fixed values.
func (s *System) Voltage(x []float64, name string) (float64, error) {
	idx, fixed, isFixed, err := s.NodeIndex(name)
	if err != nil {
		return 0, err
	}
	if isFixed {
		return fixed, nil
	}
	return x[idx], nil
}
