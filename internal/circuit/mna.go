package circuit

import (
	"fmt"
	"slices"

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

	// nodes maps every node name the circuit uses, and the ground names, to
	// a nodeRef; pinned holds the voltages of the nodes collapsed onto
	// supply rails.
	nodes  map[string]nodeRef
	pinned []float64
	title  string
}

// nodeRef is what a node name stands for in the stamped system: a free
// node's unknown index (≥ 0), ground, or a node pinned to a supply rail,
// whose voltage is System.pinned[pinnedIndex].
type nodeRef int32

const groundRef nodeRef = -1

// pinnedRef is the ref of the k-th pinned node; pinnedIndex inverts it.
func pinnedRef(k int) nodeRef      { return nodeRef(-2 - k) }
func (r nodeRef) pinnedIndex() int { return int(-2 - r) }

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

// Stamp assembles the MNA system from the circuit. Every terminal is
// resolved with one map lookup, whose entry already says ground, pinned
// rail or free unknown; then G (with the inputs) and C are filled and
// compressed side by side, on two goroutines.
func Stamp(c *Circuit, opts StampOptions) (*System, error) {
	// A grid has about one node per three elements.
	s := &System{nodes: make(map[string]nodeRef, c.NumElements()/3), title: c.Title}
	for _, g := range groundNames {
		s.nodes[g] = groundRef
	}

	// Pass 1: identify collapsed supply nodes.
	collapsedSrc := make([]bool, len(c.VSources))
	if opts.CollapseSupplies {
		for i, v := range c.VSources {
			dc, ok := v.Wave.(waveform.DC)
			if !ok {
				continue
			}
			var name string
			var volts float64
			switch {
			case isGround(v.Neg) && !isGround(v.Pos):
				name, volts = v.Pos, float64(dc)
			case isGround(v.Pos) && !isGround(v.Neg):
				name, volts = v.Neg, -float64(dc)
			default:
				continue
			}
			if ref, dup := s.nodes[name]; dup {
				if prev := s.pinned[ref.pinnedIndex()]; prev != volts {
					return nil, fmt.Errorf("circuit: node %s pinned to conflicting voltages %g and %g", name, prev, volts)
				}
			} else {
				s.nodes[name] = pinnedRef(len(s.pinned))
				s.pinned = append(s.pinned, volts)
			}
			collapsedSrc[i] = true
		}
	}

	// Pass 2: number the free nodes in first-use order. refs holds every
	// terminal's ref in forEachNode order; the stamping loops below index it
	// from the offset of their element kind.
	refs, free := s.intern(c)
	s.NumNodes = int(free)
	rRefs, refs := refs[:2*len(c.Resistors)], refs[2*len(c.Resistors):]
	cRefs, refs := refs[:2*len(c.Capacitors)], refs[2*len(c.Capacitors):]
	lRefs, refs := refs[:2*len(c.Inductors)], refs[2*len(c.Inductors):]
	vRefs, iRefs := refs[:2*len(c.VSources)], refs[2*len(c.VSources):]

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

	// C: capacitors, then the inductors' branch terms. A capacitor to a
	// fixed DC rail behaves like a capacitor to ground for the dynamics (the
	// rail voltage is constant).
	cDone := make(chan *sparse.CSC, 1)
	go func() {
		cT := newStamper(n, branchStamps(cRefs, 2, 0))
		for k, cap := range c.Capacitors {
			cT.branch(int(cRefs[2*k]), int(cRefs[2*k+1]), cap.C)
		}
		// Inductors: branch current unknown iL with L·diL/dt = vA - vB.
		for k, l := range c.Inductors {
			cT.diag(indIdx[k], l.L)
		}
		cDone <- cT.toCSC()
	}()

	// G and the inputs.
	gT := newStamper(n, branchStamps(rRefs, 2, 0)+branchStamps(lRefs, 4, 2)+branchStamps(vRefs, 4, 2))

	// Resistors.
	for k, r := range c.Resistors {
		stampConductance(gT, s, rRefs[2*k], rRefs[2*k+1], 1/r.R, r.Name)
	}
	// Gmin leak.
	if opts.Gmin > 0 {
		for i := 0; i < s.NumNodes; i++ {
			gT.diag(i, opts.Gmin)
		}
	}

	// Inductors: KCL, current iL leaves node A and enters node B.
	for k, l := range c.Inductors {
		iL := indIdx[k]
		a, b := lRefs[2*k], lRefs[2*k+1]
		if a >= 0 {
			gT.t.Add(int(a), iL, 1)
			gT.t.Add(iL, int(a), -1)
		}
		if b >= 0 {
			gT.t.Add(int(b), iL, -1)
			gT.t.Add(iL, int(b), 1)
		}
		// Fixed rails contribute constant voltage to the branch equation.
		if av := s.railVolts(a); av != 0 {
			s.Inputs = append(s.Inputs, Input{
				Rows: []int{iL}, Coefs: []float64{av}, Wave: waveform.DC(1), Supply: true, Name: l.Name + ".railA",
			})
		}
		if bv := s.railVolts(b); bv != 0 {
			s.Inputs = append(s.Inputs, Input{
				Rows: []int{iL}, Coefs: []float64{-bv}, Wave: waveform.DC(1), Supply: true, Name: l.Name + ".railB",
			})
		}
	}

	// Voltage sources (uncollapsed).
	for k, v := range c.VSources {
		iv := vsrcIdx[k]
		if iv < 0 {
			continue
		}
		a, b := vRefs[2*k], vRefs[2*k+1]
		if a >= 0 {
			gT.t.Add(int(a), iv, 1)
			gT.t.Add(iv, int(a), 1)
		}
		if b >= 0 {
			gT.t.Add(int(b), iv, -1)
			gT.t.Add(iv, int(b), -1)
		}
		s.Inputs = append(s.Inputs, Input{Rows: []int{iv}, Coefs: []float64{1}, Wave: v.Wave, Supply: isDC(v.Wave), Name: v.Name})
		// Fixed rails shift the branch equation constant.
		if av := s.railVolts(a); av != 0 {
			s.Inputs = append(s.Inputs, Input{Rows: []int{iv}, Coefs: []float64{-av}, Wave: waveform.DC(1), Supply: true, Name: v.Name + ".railP"})
		}
		if bv := s.railVolts(b); bv != 0 {
			s.Inputs = append(s.Inputs, Input{Rows: []int{iv}, Coefs: []float64{bv}, Wave: waveform.DC(1), Supply: true, Name: v.Name + ".railN"})
		}
	}

	// Current sources: positive current flows Pos -> Neg through the source,
	// i.e. it is drawn out of Pos and injected into Neg. Their rows and
	// coefficients are cut from one array each.
	s.Inputs = slices.Grow(s.Inputs, len(c.ISources))
	rowBuf, coefBuf := make([]int, 0, 2*len(c.ISources)), make([]float64, 0, 2*len(c.ISources))
	for k, src := range c.ISources {
		a, b := iRefs[2*k], iRefs[2*k+1]
		from := len(rowBuf)
		if a >= 0 {
			rowBuf, coefBuf = append(rowBuf, int(a)), append(coefBuf, -1)
		}
		if b >= 0 {
			rowBuf, coefBuf = append(rowBuf, int(b)), append(coefBuf, 1)
		}
		to := len(rowBuf)
		if to == from {
			continue // both terminals grounded/fixed: no effect on unknowns
		}
		s.Inputs = append(s.Inputs, Input{Rows: rowBuf[from:to:to], Coefs: coefBuf[from:to:to], Wave: src.Wave, Supply: isDC(src.Wave), Name: src.Name})
	}

	s.G = gT.toCSC()
	s.C = <-cDone
	return s, nil
}

// branchStamps counts the off-diagonal entries the two-terminal elements
// with the given refs stamp: both if both terminals are free, one if only
// one is.
func branchStamps(refs []nodeRef, both, one int) int {
	n := 0
	for k := 0; k+1 < len(refs); k += 2 {
		switch a, b := refs[k] >= 0, refs[k+1] >= 0; {
		case a && b:
			n += both
		case a || b:
			n += one
		}
	}
	return n
}

// stamper fills one MNA matrix. Off-diagonal stamps go to the triplet as
// they come; diagonal stamps are summed in a dense vector, in stamp order,
// and reach the triplet once per position at the end. A grid node's
// diagonal takes one stamp per branch at the node, so this halves the
// triplet, and the sums are the ones the triplet would have formed: its
// duplicates are added in stamp order too, and starting from 0 changes no
// bit, since a diagonal stamp is an element value checked positive (or
// NaN) or its negation, never −0.
type stamper struct {
	t   *sparse.Triplet
	d   []float64
	hit []bool // d[i] has taken a stamp
}

// newStamper returns a stamper for an n×n matrix expecting offDiag
// off-diagonal stamps.
func newStamper(n, offDiag int) *stamper {
	t := sparse.NewTriplet(n, n)
	t.Grow(offDiag + n)
	return &stamper{t: t, d: make([]float64, n), hit: make([]bool, n)}
}

func (m *stamper) diag(i int, v float64) {
	m.d[i] += v
	m.hit[i] = true
}

// branch stamps a two-terminal admittance v between a and b (negative:
// ground or a pinned rail, which only the other terminal's diagonal sees).
// An element whose terminals are one node stamps all four entries on its
// diagonal, +v, +v, −v, −v, in that order.
func (m *stamper) branch(a, b int, v float64) {
	switch {
	case a >= 0 && a == b:
		m.diag(a, v)
		m.diag(a, v)
		m.diag(a, -v)
		m.diag(a, -v)
	case a >= 0 && b >= 0:
		m.diag(a, v)
		m.diag(b, v)
		m.t.Add(a, b, -v)
		m.t.Add(b, a, -v)
	case a >= 0:
		m.diag(a, v)
	case b >= 0:
		m.diag(b, v)
	}
}

// toCSC moves the diagonal into the triplet and compresses it.
func (m *stamper) toCSC() *sparse.CSC {
	for i, hit := range m.hit {
		if hit {
			m.t.Add(i, i, m.d[i])
		}
	}
	return m.t.ToCSC()
}

// railVolts is the voltage of a pinned node, 0 for any other ref.
func (s *System) railVolts(r nodeRef) float64 {
	if r <= pinnedRef(0) {
		return s.pinned[r.pinnedIndex()]
	}
	return 0
}

// stampConductance stamps a conductance g between the nodes a and b.
// Connections to pinned rails become DC inputs.
func stampConductance(gT *stamper, s *System, a, b nodeRef, g float64, name string) {
	gT.branch(int(a), int(b), g)
	switch {
	case a >= 0 && b < 0:
		if bv := s.railVolts(b); bv != 0 {
			s.Inputs = append(s.Inputs, Input{Rows: []int{int(a)}, Coefs: []float64{g * bv}, Wave: waveform.DC(1), Supply: true, Name: name + ".rail"})
		}
	case b >= 0 && a < 0:
		if av := s.railVolts(a); av != 0 {
			s.Inputs = append(s.Inputs, Input{Rows: []int{int(b)}, Coefs: []float64{g * av}, Wave: waveform.DC(1), Supply: true, Name: name + ".rail"})
		}
	}
}

// intern resolves every terminal of c, in forEachNode order, to its ref
// with one map lookup, numbering the free nodes in first-use order from 0;
// it returns the refs and the free node count. The ground names and the
// pinned nodes are in s.nodes already.
func (s *System) intern(c *Circuit) ([]nodeRef, nodeRef) {
	refs := make([]nodeRef, 0, 2*c.NumElements())
	free := nodeRef(0)
	forEachNode(c, func(name string) {
		ref, ok := s.nodes[name]
		if !ok {
			ref = free
			free++
			s.nodes[name] = ref
		}
		refs = append(refs, ref)
	})
	return refs, free
}

// forEachNode visits every node name in the circuit: each element's two
// terminals, resistors first, then capacitors, inductors, voltage sources
// and current sources.
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
	ref, ok := s.nodes[name]
	switch {
	case !ok:
		return 0, 0, false, fmt.Errorf("circuit: unknown node %q", name)
	case ref < 0:
		return -1, s.pinned[ref.pinnedIndex()], true, nil
	}
	return int(ref), 0, false, nil
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
	for name, ref := range s.nodes {
		if ref >= 0 {
			names[ref] = name
		}
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
