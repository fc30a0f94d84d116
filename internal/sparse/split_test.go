package sparse_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/pdn"
	"github.com/matex-sim/matex/internal/sparse"
)

// symbolicCase is one pattern under one ordering.
type symbolicCase struct {
	name  string
	order sparse.Ordering
	build func(t *testing.T) *sparse.CSC
}

func constPattern(a *sparse.CSC) func(*testing.T) *sparse.CSC {
	return func(*testing.T) *sparse.CSC { return a }
}

// symbolicCases spans the orderings and shapes the analysis must reproduce:
// meshes, a disconnected pair, random SPD patterns and the workload grids.
func symbolicCases() []symbolicCase {
	rng := rand.New(rand.NewSource(48))
	r400, r2000 := sparse.RandomSPD(rng, 400), sparse.RandomSPD(rng, 2000)
	return []symbolicCase{
		{"mesh 16x16", sparse.OrderND, constPattern(sparse.MeshSPD(16, 16))},
		{"mesh 16x16", sparse.OrderMinDegree, constPattern(sparse.MeshSPD(16, 16))},
		{"mesh 16x16", sparse.OrderNatural, constPattern(sparse.MeshSPD(16, 16))},
		{"mesh 60x40", sparse.OrderND, constPattern(sparse.MeshSPD(60, 40))},
		{"two meshes", sparse.OrderND, constPattern(sparse.BlockDiagCSC(sparse.MeshSPD(9, 9), sparse.MeshSPD(9, 9)))},
		{"random 400", sparse.OrderND, constPattern(r400)},
		{"random 400", sparse.OrderMinDegree, constPattern(r400)},
		{"random 2000", sparse.OrderND, constPattern(r2000)},
		{"ibmpg1t", sparse.OrderND, shiftMatrix("ibmpg1t", 1)},
		{"ibmpg1t", sparse.OrderMinDegree, shiftMatrix("ibmpg1t", 1)},
		{"ibmpg5t", sparse.OrderND, shiftMatrix("ibmpg5t", 1)},
		{"grid_static", sparse.OrderND, shiftMatrix("ibmpg6t", 1.5)},
	}
}

// The analysis — permutation, elimination tree, pattern of L and supernodal
// layout — is pinned: how it is computed may change, what it computes may
// not. The values were taken from the one-goroutine analysis, before the
// column counts came from the etree's skeleton, before the pass filling
// L's pattern and nested dissection's first bisection ran on two
// goroutines, and before the orderings read A + Aᵀ from one slab.
func TestSymbolicPinned(t *testing.T) {
	want := []uint64{
		0xa6918fa8e6e7bf1, 0xdf685e20b31a4876, 0xfa534a735660362c, 0xf425548e213e9d6,
		0x2f094cee11495d99, 0xb18392e744f16321, 0xb62d2c736455d699, 0x82b19f6355a87751,
		0xc8930248c0be80b6, 0xd0ae8bae2e5e8490, 0xd74684ccbdf2de15, 0x9446672456b16804,
	}
	for i, c := range symbolicCases() {
		a := c.build(t)
		if err := sparse.CheckCSC(a); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sym, err := sparse.AnalyzeLDLT(a, c.order)
		if err != nil {
			t.Fatal(err)
		}
		if err := sparse.CheckSymbolic(sym); err != nil {
			t.Errorf("%s %v: %v", c.name, c.order, err)
		}
		if got := sparse.SymbolicFingerprint(sym); got != want[i] {
			t.Errorf("%s %v: symbolic fingerprint %#x, want %#x", c.name, c.order, got, want[i])
		}
	}
}

// goldenShapes are the decks internal/netlist's TestFrontEndGolden pins
// (there parsed from text, with nine extra cards on the package deck;
// stamped straight from the generator here).
var goldenShapes = []struct {
	ibm          string
	scale, cnode float64
	pkg          bool
}{
	{"ibmpg1t", 1, 0, false}, {"ibmpg2t", 1, 0, false}, {"ibmpg3t", 1, 0, false},
	{"ibmpg4t", 1, 0, false}, {"ibmpg5t", 1, 0, false}, {"ibmpg6t", 1, 0, false},
	{"ibmpg6t", 1.5, 0, false}, {"ibmpg5t", 1, 0.5e-12, false}, {"ibmpg2t", 1, 0.5e-12, false},
	{"ibmpg1t", 1, 0, true},
}

// stampShape stamps one golden shape as the CLI does.
func stampShape(t *testing.T, ibm string, scale, cnode float64, pkg bool) *circuit.System {
	t.Helper()
	spec, err := pdn.IBMCase(ibm, scale)
	if err != nil {
		t.Fatal(err)
	}
	if cnode > 0 {
		spec.CNode = cnode
	}
	if pkg {
		spec.PkgR, spec.PkgL = 0.05, 50e-12
	}
	ckt, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := circuit.Stamp(ckt, circuit.StampOptions{CollapseSupplies: true})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// sameBits reports whether two factors of one analysis hold the same
// panels and pivots, bit for bit.
func sameBits(f, g *sparse.LDLT) error {
	for _, p := range [][2][]float64{{sparse.PanelValues(f), sparse.PanelValues(g)}, {f.D(), g.D()}} {
		for i := range p[0] {
			if math.Float64bits(p[0][i]) != math.Float64bits(p[1][i]) {
				return fmt.Errorf("entry %d: %v, one core %v", i, p[0][i], p[1][i])
			}
		}
	}
	return nil
}

// checkSplitBits factors a with Refactor, which fills the two halves of a
// split on two goroutines, and with RefactorInto, which runs every
// supernode in column order on one, and requires the same bits. The matrix,
// its analysis and every factor on the way must hold the package's
// invariants. It returns whether the analysis splits.
func checkSplitBits(t *testing.T, label string, a *sparse.CSC, order sparse.Ordering) bool {
	t.Helper()
	if err := sparse.CheckCSC(a); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sym, err := sparse.AnalyzeLDLT(a, order)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := sparse.CheckSymbolic(sym); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	factor := func(f *sparse.LDLT, err error) *sparse.LDLT {
		t.Helper()
		if err == nil {
			err = sparse.CheckFactor(f)
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return f
	}
	two := factor(sym.Refactor(a))
	one := factor(sym.Refactor(a))
	// Refill with other values first, so every panel is cleared and
	// rewritten on the one-core path.
	for _, m := range []*sparse.CSC{a.Clone().Scale(2), a} {
		factor(one, sym.RefactorInto(one, m))
	}
	if err := sameBits(two, one); err != nil {
		t.Errorf("%s: two-core factor differs from one-core: %v", label, err)
	}
	_, hi := sparse.Split(sym)
	return hi > 0
}

// Refactor's two-goroutine fill gives RefactorInto's bits on every golden
// deck (G and C+γG, where symmetric), on random SPD patterns, and on
// patterns that split at a hub or across a forest rather than at a
// separator; patterns too small or without two independent subtrees run on
// one goroutine.
func TestRefactorSplitMatchesOneCore(t *testing.T) {
	for _, g := range goldenShapes {
		sys := stampShape(t, g.ibm, g.scale, g.cnode, g.pkg)
		for _, m := range []struct {
			name string
			a    *sparse.CSC
		}{{"G", sys.G}, {"C+γG", sparse.Add(1, sys.C, 1e-10, sys.G)}} {
			if !m.a.IsSymmetric(0) {
				continue
			}
			label := fmt.Sprintf("%s×%g cnode=%g pkg=%v %s", g.ibm, g.scale, g.cnode, g.pkg, m.name)
			if !checkSplitBits(t, label, m.a, sparse.OrderND) {
				t.Errorf("%s: n = %d, no split", label, m.a.Rows)
			}
		}
	}
	// Random graphs have no small separators: some split, some do not.
	rng := rand.New(rand.NewSource(7))
	splits := 0
	for _, n := range []int{300, 700, 1500} {
		for _, order := range []sparse.Ordering{sparse.OrderND, sparse.OrderMinDegree} {
			if checkSplitBits(t, fmt.Sprintf("random %d %v", n, order), sparse.RandomSPD(rng, n), order) {
				splits++
			}
		}
	}
	if splits == 0 {
		t.Error("no random pattern splits")
	}
	meshes := func(k, side int) *sparse.CSC {
		blocks := make([]*sparse.CSC, k)
		for i := range blocks {
			blocks[i] = sparse.MeshSPD(side, side)
		}
		return sparse.BlockDiagCSC(blocks...)
	}
	for _, c := range []struct {
		name  string
		a     *sparse.CSC
		order sparse.Ordering
		split bool
	}{
		{"1 node", sparse.MeshSPD(1, 1), sparse.OrderND, false},
		{"2 nodes", sparse.MeshSPD(2, 1), sparse.OrderND, false},
		{"mesh 16x16", sparse.MeshSPD(16, 16), sparse.OrderND, false},
		{"star 300", sparse.StarSPD(300), sparse.OrderND, false},
		{"chain 3000", sparse.ChainSPD(3000), sparse.OrderNatural, false},
		{"forest of 4 5x5", meshes(4, 5), sparse.OrderND, false},
		// Independent subtrees need no separator: the leaves of a hub, the
		// trees of a forest, a chain that nested dissection bisects.
		{"star 3000", sparse.StarSPD(3000), sparse.OrderND, true},
		{"forest of 64 8x8", meshes(64, 8), sparse.OrderND, true},
		{"chain 3000 nd", sparse.ChainSPD(3000), sparse.OrderND, true},
	} {
		if got := checkSplitBits(t, c.name, c.a, c.order); got != c.split {
			t.Errorf("%s: split %v, want %v", c.name, got, c.split)
		}
	}
}

// Several factorizations of one shared analysis at once, each filling its
// halves on two goroutines: every factor is its matrix's one-core bits.
// Run under -race, this is the check that the halves share nothing.
func TestRefactorSplitConcurrent(t *testing.T) {
	a := sparse.MeshSPD(48, 48)
	sym, err := sparse.AnalyzeLDLT(a, sparse.OrderND)
	if err != nil {
		t.Fatal(err)
	}
	if _, hi := sparse.Split(sym); hi == 0 {
		t.Fatal("48x48 mesh: no split")
	}
	var wg sync.WaitGroup
	for w := 1; w <= 4; w++ {
		wg.Add(1)
		go func(scale float64) {
			defer wg.Done()
			m := a.Clone().Scale(scale)
			two, err := sym.Refactor(m)
			if err != nil {
				t.Error(err)
				return
			}
			one, err := sym.Refactor(m)
			if err == nil {
				err = sym.RefactorInto(one, m)
			}
			if err == nil {
				err = sameBits(two, one)
			}
			if err != nil {
				t.Errorf("scale %g: %v", scale, err)
			}
		}(float64(w))
	}
	wg.Wait()
}
