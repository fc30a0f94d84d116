package sparse_test

import (
	"runtime"
	"slices"
	"testing"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/pdn"
	"github.com/matex-sim/matex/internal/sparse"
)

// committedPattern is one sparsity pattern the repository's benchmarks and
// workloads factor, with the strictly-lower fill reverse Cuthill-McKee —
// the default until PR 16, since deleted — produced on it (EXPERIMENTS.md
// "Ordering table").
type committedPattern struct {
	name   string
	rcmLNZ int
	build  func(t *testing.T) *sparse.CSC
}

// shiftMatrix stamps an IBM stand-in grid and returns C + γG, the matrix
// R-MATEX factors; G alone has the same pattern.
func shiftMatrix(ibm string, scale float64) func(t *testing.T) *sparse.CSC {
	return func(t *testing.T) *sparse.CSC {
		t.Helper()
		spec, err := pdn.IBMCase(ibm, scale)
		if err != nil {
			t.Fatal(err)
		}
		ckt, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		sys, err := circuit.Stamp(ckt, circuit.StampOptions{CollapseSupplies: true})
		if err != nil {
			t.Fatal(err)
		}
		return sparse.Add(1, sys.C, 1e-10, sys.G)
	}
}

// committedPatterns lists ibmpg1t…6t (serve_stream rotates 1t–3t; ibmpg5t
// is the grid_dynamic and dist_loopback pattern), the two solver-bench
// shapes (BenchmarkSolveSeq_mesh96nd's five-point mesh, _4dom's four
// ibmpg1t×2 domains) and the grid_static deck.
var committedPatterns = []committedPattern{
	{"ibmpg1t", 17919, shiftMatrix("ibmpg1t", 1)},
	{"ibmpg2t", 42269, shiftMatrix("ibmpg2t", 1)},
	{"ibmpg3t", 142066, shiftMatrix("ibmpg3t", 1)},
	{"ibmpg4t", 225357, shiftMatrix("ibmpg4t", 1)},
	{"ibmpg5t", 336139, shiftMatrix("ibmpg5t", 1)},
	{"ibmpg6t", 478334, shiftMatrix("ibmpg6t", 1)},
	{"mesh96nd", 594320, func(*testing.T) *sparse.CSC { return sparse.MeshSPD(96, 96) }},
	{"4dom", 568264, func(t *testing.T) *sparse.CSC {
		a := shiftMatrix("ibmpg1t", 2)(t)
		return sparse.BlockDiagCSC(a, a, a, a)
	}},
	{"grid_static", 1609837, shiftMatrix("ibmpg6t", 1.5)},
}

// TestDefaultOrderingFill is the regression test behind the default's
// choice: on every committed pattern the default's factor is no larger than
// the one the old default produced and within 1.35× of the best any other
// selectable ordering achieves (measured: 1.30× on the smallest pattern,
// n = 891, falling to 1.10× at n = 18 029). Fill is an exact count, so this
// cannot flake.
func TestDefaultOrderingFill(t *testing.T) {
	lnz := func(a *sparse.CSC, o sparse.Ordering) int {
		sym, err := sparse.AnalyzeLDLT(a, o)
		if err != nil {
			t.Fatal(err)
		}
		return sym.LNZ()
	}
	for _, p := range committedPatterns {
		if testing.Short() && p.name == "grid_static" {
			continue // minimum degree alone is ~0.2 s here
		}
		a := p.build(t)
		def := lnz(a, sparse.OrderDefault)
		best := 0
		for _, o := range []sparse.Ordering{sparse.OrderNatural, sparse.OrderMinDegree, sparse.OrderND} {
			if o == sparse.OrderDefault.Resolve() {
				continue
			}
			if l := lnz(a, o); best == 0 || l < best {
				best = l
			}
		}
		t.Logf("%-11s n=%-5d default lnz=%-7d best other=%-7d (%.2f×) old default=%d", p.name, a.Rows, def, best, float64(def)/float64(best), p.rcmLNZ)
		if def > p.rcmLNZ {
			t.Errorf("%s: default fill %d exceeds the deleted default's %d", p.name, def, p.rcmLNZ)
		}
		if float64(def) > 1.35*float64(best) {
			t.Errorf("%s: default fill %d is more than 1.35× the best other ordering's %d", p.name, def, best)
		}
	}
}

// TestDefaultOrderingDeterministic: matexsrv is checked against the
// one-shot CLI at 1e-9 and matexd at 1e-6, so every process must resolve
// the default to the same permutation — across repeated calls and across
// GOMAXPROCS settings.
func TestDefaultOrderingDeterministic(t *testing.T) {
	a := shiftMatrix("ibmpg2t", 1)(t)
	want := sparse.Order(a, sparse.OrderDefault)
	if err := sparse.CheckPerm(want, a.Rows); err != nil {
		t.Fatalf("default ordering: %v", err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 3; rep++ {
			if got := sparse.Order(a, sparse.OrderDefault); !slices.Equal(got, want) {
				t.Fatalf("GOMAXPROCS=%d call %d: default permutation differs", procs, rep)
			}
		}
	}
}
