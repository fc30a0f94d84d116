package sparse

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLDLTSolveSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	// The 64×64 coupled mesh is the largest factor any sparse test solves.
	mesh := meshSPD(64, 64)
	for _, order := range []Ordering{OrderNatural, OrderMinDegree, OrderND} {
		inputs := []*CSC{randomSPD(rng, 1), randomSPD(rng, 2), randomSPD(rng, 10), randomSPD(rng, 50), mesh}
		for _, a := range inputs {
			n := a.Rows
			f, err := FactorLDLT(a, order)
			if err != nil {
				t.Fatalf("n=%d order=%v: %v", n, order, err)
			}
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			x := make([]float64, n)
			solve(f, x, b)
			if r := residual(a, x, b); r > 1e-9 {
				t.Fatalf("n=%d order=%v: residual %g", n, order, r)
			}
		}
	}
}

func TestLDLTMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randomSPD(rng, 30)
	fl, err := FactorLDLT(a, OrderDefault)
	if err != nil {
		t.Fatal(err)
	}
	fu, err := FactorLU(a, OrderDefault, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 30)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x1 := make([]float64, 30)
	x2 := make([]float64, 30)
	solve(fl, x1, b)
	solve(fu, x2, b)
	for i := range x1 {
		if !almostEqual(x1[i], x2[i], 1e-9) {
			t.Fatalf("LDLT vs LU mismatch at %d: %v vs %v", i, x1[i], x2[i])
		}
	}
}

func TestLDLTGridFillReduction(t *testing.T) {
	a := gridLaplacian(20, 20)
	fNat, err := FactorLDLT(a, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	fMD, err := FactorLDLT(a, OrderMinDegree)
	if err != nil {
		t.Fatal(err)
	}
	if fMD.NNZ() >= fNat.NNZ() {
		t.Logf("mindeg nnz %d, natural nnz %d (no reduction on this grid)", fMD.NNZ(), fNat.NNZ())
	}
	// Both must still solve correctly.
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i % 7)
	}
	x := make([]float64, n)
	solve(fMD, x, b)
	if r := residual(a, x, b); r > 1e-8 {
		t.Fatalf("mindeg residual %g", r)
	}
}

func TestLDLTSingular(t *testing.T) {
	// Laplacian without ground leak is singular.
	n := 4
	tr := NewTriplet(n, n)
	for i := 0; i < n-1; i++ {
		tr.Add(i, i+1, -1)
		tr.Add(i+1, i, -1)
		tr.Add(i, i, 1)
		tr.Add(i+1, i+1, 1)
	}
	if _, err := FactorLDLT(tr.ToCSC(), OrderNatural); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestLDLTIndefinite(t *testing.T) {
	// LDLT without pivoting handles symmetric indefinite matrices as long as
	// no zero pivot appears: [0 1; 1 0] must fail, [2 1; 1 -3] must work.
	tr := NewTriplet(2, 2)
	tr.Add(0, 1, 1)
	tr.Add(1, 0, 1)
	if _, err := FactorLDLT(tr.ToCSC(), OrderNatural); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular for zero diagonal, got %v", err)
	}
	tr2 := NewTriplet(2, 2)
	tr2.Add(0, 0, 2)
	tr2.Add(0, 1, 1)
	tr2.Add(1, 0, 1)
	tr2.Add(1, 1, -3)
	f, err := FactorLDLT(tr2.ToCSC(), OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	solve(f, x, []float64{1, 0})
	// Exact solution of [2 1;1 -3] x = [1;0] is x = [3/7, 1/7].
	if !almostEqual(x[0], 3.0/7, 1e-13) || !almostEqual(x[1], 1.0/7, 1e-13) {
		t.Fatalf("x = %v, want [3/7 1/7]", x)
	}
}

// Property: LDLT solves random SPD systems under random orderings.
func TestQuickLDLTSolve(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		a := randomSPD(r, n)
		ldl, err := FactorLDLT(a, Ordering(r.Intn(3)))
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x := make([]float64, n)
		solve(ldl, x, b)
		return residual(a, x, b) < 1e-8
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(22))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCacheFactorPicksLDLTForSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := NewCache(0)
	a := randomSPD(rng, 20)
	f, _, err := c.Factor(a, OrderDefault)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.(*LDLT); !ok {
		t.Errorf("Cache.Factor chose %T for SPD matrix, want *LDLT", f)
	}
	b := randomSparse(rng, 20, 0.2)
	f2, _, err := c.Factor(b, OrderDefault)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f2.(*LU); !ok {
		t.Errorf("Cache.Factor chose %T for unsymmetric matrix, want *LU", f2)
	}
}

func BenchmarkLDLTFactorGrid(b *testing.B) {
	a := gridLaplacian(40, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FactorLDLT(a, OrderDefault); err != nil {
			b.Fatal(err)
		}
	}
}
