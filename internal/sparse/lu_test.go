package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// residual returns max_i |A x - b|_i.
func residual(a *CSC, x, b []float64) float64 {
	r := make([]float64, len(b))
	a.MulVec(r, x)
	var max float64
	for i := range r {
		if d := math.Abs(r[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}

func TestLUSolveSmallKnown(t *testing.T) {
	// [2 1; 1 3] x = [3; 5] -> x = [4/5, 7/5]
	tr := NewTriplet(2, 2)
	tr.Add(0, 0, 2)
	tr.Add(0, 1, 1)
	tr.Add(1, 0, 1)
	tr.Add(1, 1, 3)
	a := tr.ToCSC()
	f, err := FactorLU(a, OrderNatural, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	solve(f, x, []float64{3, 5})
	if !almostEqual(x[0], 0.8, 1e-14) || !almostEqual(x[1], 1.4, 1e-14) {
		t.Fatalf("x = %v, want [0.8 1.4]", x)
	}
}

func TestLUSolveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, order := range []Ordering{OrderNatural, OrderMinDegree, OrderND} {
		for _, n := range []int{1, 2, 5, 20, 80} {
			a := randomSparse(rng, n, 0.15)
			f, err := FactorLU(a, order, 1.0)
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

func TestLUFactorsMultiply(t *testing.T) {
	// Verify P·A·Q = L·U entrywise via dense expansion.
	rng := rand.New(rand.NewSource(11))
	n := 15
	a := randomSparse(rng, n, 0.3)
	f, err := FactorLU(a, OrderDefault, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	l := f.L().Dense()
	u := f.U().Dense()
	ad := a.Dense()
	pinv, q := f.RowPerm(), f.ColPerm()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var lu float64
			for k := 0; k < n; k++ {
				lu += l[i][k] * u[k][j]
			}
			// (P·A·Q)[i][j] = A[ porig(i) ][ q[j] ] with pinv[porig(i)] = i.
			var paq float64
			for r := 0; r < n; r++ {
				if pinv[r] == i {
					paq = ad[r][q[j]]
				}
			}
			if !almostEqual(lu, paq, 1e-10) {
				t.Fatalf("LU(%d,%d) = %v, PAQ = %v", i, j, lu, paq)
			}
		}
	}
}

func TestLUSingularDetected(t *testing.T) {
	tr := NewTriplet(3, 3)
	tr.Add(0, 0, 1)
	tr.Add(1, 1, 1)
	// Column 2 is structurally empty.
	a := tr.ToCSC()
	if _, err := FactorLU(a, OrderNatural, 1.0); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
	// Numerically singular: two identical rows.
	tr2 := NewTriplet(2, 2)
	tr2.Add(0, 0, 1)
	tr2.Add(0, 1, 2)
	tr2.Add(1, 0, 1)
	tr2.Add(1, 1, 2)
	if _, err := FactorLU(tr2.ToCSC(), OrderNatural, 1.0); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular for rank-1 matrix, got %v", err)
	}
}

func TestLUNonSquareRejected(t *testing.T) {
	tr := NewTriplet(2, 3)
	tr.Add(0, 0, 1)
	if _, err := FactorLU(tr.ToCSC(), OrderNatural, 1.0); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestLUPermutedIdentity(t *testing.T) {
	// A matrix that forces row pivoting: anti-diagonal.
	n := 6
	tr := NewTriplet(n, n)
	for i := 0; i < n; i++ {
		tr.Add(i, n-1-i, float64(i+1))
	}
	a := tr.ToCSC()
	f, err := FactorLU(a, OrderNatural, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i)
	}
	x := make([]float64, n)
	solve(f, x, b)
	if r := residual(a, x, b); r > 1e-12 {
		t.Fatalf("residual %g", r)
	}
}

// Property test: LU solve inverts random diagonally dominant systems for all
// orderings.
func TestQuickLUSolve(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		a := randomSparse(r, n, 0.2)
		lu, err := FactorLU(a, Ordering(r.Intn(3)), 1.0)
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x := make([]float64, n)
		solve(lu, x, b)
		return residual(a, x, b) < 1e-8
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestLUSolveWithAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 10
	a := randomSparse(rng, n, 0.3)
	f, err := FactorLU(a, OrderNatural, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := make([]float64, n)
	solve(f, want, b)
	// Aliased: dst == b.
	got := append([]float64(nil), b...)
	solve(f, got, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("aliased solve differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestLUThresholdPivoting(t *testing.T) {
	// With tol < 1 the diagonal should be kept when acceptable, producing
	// an identity row permutation for a diagonally dominant matrix.
	rng := rand.New(rand.NewSource(14))
	a := randomSparse(rng, 25, 0.2)
	f, err := FactorLU(a, OrderNatural, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range f.RowPerm() {
		if v != i {
			t.Fatalf("diagonally dominant matrix pivoted row %d -> %d", i, v)
		}
	}
	b := make([]float64, 25)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, 25)
	solve(f, x, b)
	if r := residual(a, x, b); r > 1e-9 {
		t.Fatalf("residual %g", r)
	}
}

func BenchmarkLUFactorGrid(b *testing.B) {
	a := gridLaplacian(40, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FactorLU(a, OrderDefault, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLUSolveGrid(b *testing.B) {
	a := gridLaplacian(40, 40)
	f, err := FactorLU(a, OrderDefault, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	n := a.Rows
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}
	x := make([]float64, n)
	work := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SolveWith(x, rhs, work)
	}
}

// gridLaplacian builds the 5-point Laplacian of an nx-by-ny grid plus a
// positive diagonal shift (SPD), resembling a power-grid conductance matrix.
func gridLaplacian(nx, ny int) *CSC {
	n := nx * ny
	tr := NewTriplet(n, n)
	id := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := id(x, y)
			deg := 0.01 // ground leak keeps it nonsingular
			if x+1 < nx {
				j := id(x+1, y)
				tr.Add(i, j, -1)
				tr.Add(j, i, -1)
				deg++
			}
			if y+1 < ny {
				j := id(x, y+1)
				tr.Add(i, j, -1)
				tr.Add(j, i, -1)
				deg++
			}
			if x > 0 {
				deg++
			}
			if y > 0 {
				deg++
			}
			tr.Add(i, i, deg)
		}
	}
	return tr.ToCSC()
}
