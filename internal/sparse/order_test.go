package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOrdersArePermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, n := range []int{1, 2, 7, 40} {
		a := randomSparse(rng, n, 0.2)
		for _, o := range []Ordering{OrderNatural, OrderMinDegree, OrderND} {
			p := Order(a, o)
			if err := CheckPerm(p, n); err != nil {
				t.Fatalf("order %v on n=%d: %v", o, n, err)
			}
		}
	}
}

func TestMinDegreeReducesFill(t *testing.T) {
	// On a star graph, natural order starting from the hub creates dense
	// fill; minimum degree eliminates leaves first, producing none.
	n := 30
	tr := NewTriplet(n, n)
	tr.Add(0, 0, float64(n))
	for i := 1; i < n; i++ {
		tr.Add(i, i, 2)
		tr.Add(0, i, -1)
		tr.Add(i, 0, -1)
	}
	a := tr.ToCSC()
	p := MinDegree(a)
	// Leaves are eliminated first; the hub can only appear among the last
	// two (it ties with the final leaf at degree 1).
	if p[len(p)-1] != 0 && p[len(p)-2] != 0 {
		t.Errorf("minimum degree should eliminate the hub near-last, order ends with %v", p[len(p)-2:])
	}
	fHub, err := FactorLDLT(a, OrderMinDegree)
	if err != nil {
		t.Fatal(err)
	}
	// L for leaf-first elimination has exactly n-1 off-diagonal entries.
	if got := fHub.L().NNZ(); got != n-1 {
		t.Errorf("mindeg L nnz = %d, want %d (no fill on star graph)", got, n-1)
	}
}

func TestOrderingStrings(t *testing.T) {
	if OrderNatural.String() != "natural" || OrderMinDegree.String() != "mindeg" || OrderND.String() != "nd" {
		t.Error("Ordering.String values changed")
	}
	// Specs and task posts carry an ordering by name, so every name parses
	// back to its value; the deleted RCM has no spelling.
	for _, o := range []Ordering{OrderDefault, OrderNatural, OrderMinDegree, OrderND} {
		if got, err := ParseOrdering(o.String()); err != nil || got != o {
			t.Errorf("ParseOrdering(%q) = %v, %v; want %v", o.String(), got, err, o)
		}
	}
	if _, err := ParseOrdering("rcm"); err == nil {
		t.Error(`ParseOrdering accepted the retired "rcm"`)
	}
	if OrderNatural.Resolve() != OrderNatural {
		t.Error("natural ordering did not stay natural")
	}
	if o, err := ParseOrdering("nd"); err != nil || o != OrderND {
		t.Errorf("ParseOrdering(nd) = %v, %v", o, err)
	}
	if Ordering(99).String() != "unknown" {
		t.Error("unknown ordering string")
	}
}

func TestPermHelpers(t *testing.T) {
	p := []int{2, 0, 1}
	pinv := InversePerm(p)
	want := []int{1, 2, 0}
	for i := range want {
		if pinv[i] != want[i] {
			t.Fatalf("InversePerm = %v, want %v", pinv, want)
		}
	}
	if CheckPerm([]int{0, 0, 1}, 3) == nil {
		t.Error("CheckPerm accepted a non-permutation")
	}
	defer func() {
		if recover() == nil {
			t.Error("InversePerm should panic on non-permutation")
		}
	}()
	InversePerm([]int{1, 1})
}

// Property: PermuteSym is similarity: eigen-invariant check via x'(PAP')x ==
// (P'x)'A(P'x) for random vectors.
func TestQuickPermuteSymQuadraticForm(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		a := randomSPD(r, n)
		p := r.Perm(n)
		ap := PermuteSym(a, p)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		// y = A(p,p) acting on x equals picking rows/cols of A.
		ax := make([]float64, n)
		ap.MulVec(ax, x)
		var q1 float64
		for i := range x {
			q1 += x[i] * ax[i]
		}
		// Map x back: z[p[k]] = x[k].
		z := make([]float64, n)
		for k, v := range p {
			z[v] = x[k]
		}
		az := make([]float64, n)
		a.MulVec(az, z)
		var q2 float64
		for i := range z {
			q2 += z[i] * az[i]
		}
		return almostEqual(q1, q2, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(32))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
