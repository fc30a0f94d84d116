package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMatrix(rng *rand.Rand, n int) *Matrix {
	m := New(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := Mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !Equalish(c, want, 1e-14) {
		t.Fatalf("Mul = %v, want %v", c.Data, want.Data)
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	y := a.MulVec([]float64{1, 0, -1})
	if y[0] != -2 || y[1] != -2 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestTransposeAddScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	at := a.Transpose()
	if at.At(0, 1) != 3 || at.At(1, 0) != 2 {
		t.Fatal("Transpose wrong")
	}
	s := Add(2, a, -1, a)
	if !Equalish(s, a, 1e-15) {
		t.Fatal("2A - A != A")
	}
	c := a.Clone().Scale(3)
	if c.At(1, 1) != 12 {
		t.Fatal("Scale wrong")
	}
}

func TestNorms(t *testing.T) {
	a := FromRows([][]float64{{1, -2}, {-3, 4}})
	if a.OneNorm() != 6 {
		t.Errorf("OneNorm = %v", a.OneNorm())
	}
	if a.InfNorm() != 7 {
		t.Errorf("InfNorm = %v", a.InfNorm())
	}
	if math.Abs(a.FrobNorm()-math.Sqrt(30)) > 1e-14 {
		t.Errorf("FrobNorm = %v", a.FrobNorm())
	}
}

func TestLUSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 30} {
		a := randMatrix(rng, n)
		// Make well conditioned.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			t.Fatal(err)
		}
		r := a.MulVec(x)
		for i := range r {
			if math.Abs(r[i]-b[i]) > 1e-9 {
				t.Fatalf("n=%d residual[%d] = %g", n, i, r[i]-b[i])
			}
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := FactorLU(a); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMatrix(rng, 8)
	for i := 0; i < 8; i++ {
		a.Set(i, i, a.At(i, i)+10)
	}
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := new(Matrix)
	f.InverseInto(inv)
	if !Equalish(Mul(a, inv), Eye(8), 1e-10) {
		t.Fatal("A·A⁻¹ != I")
	}
}

func TestDet(t *testing.T) {
	a := FromRows([][]float64{{2, 0}, {0, 3}})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Det()-6) > 1e-14 {
		t.Errorf("Det = %v, want 6", f.Det())
	}
	// Pivoted determinant keeps its sign right.
	b := FromRows([][]float64{{0, 1}, {1, 0}})
	f2, err := FactorLU(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f2.Det()+1) > 1e-14 {
		t.Errorf("Det = %v, want -1", f2.Det())
	}
}

// ExpmInto on one scratch, at sizes that shrink and grow again and at norms
// that reach every Padé degree and the squaring, gives Expm's bits.
func TestExpmIntoReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var w ExpmScratch
	dst := new(Matrix)
	for _, n := range []int{8, 3, 8, 1, 5} {
		for _, norm := range []float64{1e-3, 0.2, 0.9, 2, 5, 40} {
			a := randMatrix(rng, n)
			a.Scale(norm / a.OneNorm())
			want, err := Expm(a)
			if err != nil {
				t.Fatal(err)
			}
			if err := ExpmInto(dst, a, &w); err != nil {
				t.Fatal(err)
			}
			if dst.R != n || dst.C != n {
				t.Fatalf("n=%d: ExpmInto gave %dx%d", n, dst.R, dst.C)
			}
			for i, v := range want.Data {
				if math.Float64bits(dst.Data[i]) != math.Float64bits(v) {
					t.Fatalf("n=%d ‖A‖₁=%g: entry %d is %v, Expm gives %v", n, norm, i, dst.Data[i], v)
				}
			}
		}
	}
}

func TestExpmZero(t *testing.T) {
	e, err := Expm(New(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !Equalish(e, Eye(3), 1e-15) {
		t.Fatal("expm(0) != I")
	}
}

func TestExpmDiagonal(t *testing.T) {
	a := New(3, 3)
	a.Set(0, 0, 1)
	a.Set(1, 1, -2)
	a.Set(2, 2, 10)
	e, err := Expm(a)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []float64{math.E, math.Exp(-2), math.Exp(10)} {
		if math.Abs(e.At(i, i)-v) > 1e-9*v {
			t.Errorf("expm diag[%d] = %v, want %v", i, e.At(i, i), v)
		}
	}
}

func TestExpmNilpotent(t *testing.T) {
	// A = [[0,1],[0,0]] -> e^A = [[1,1],[0,1]] exactly.
	a := FromRows([][]float64{{0, 1}, {0, 0}})
	e, err := Expm(a)
	if err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]float64{{1, 1}, {0, 1}})
	if !Equalish(e, want, 1e-14) {
		t.Fatalf("expm nilpotent = %v", e.Data)
	}
}

func TestExpmRotation(t *testing.T) {
	// A = [[0,-θ],[θ,0]] -> e^A is rotation by θ.
	theta := 1.3
	a := FromRows([][]float64{{0, -theta}, {theta, 0}})
	e, err := Expm(a)
	if err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]float64{
		{math.Cos(theta), -math.Sin(theta)},
		{math.Sin(theta), math.Cos(theta)},
	})
	if !Equalish(e, want, 1e-12) {
		t.Fatalf("expm rotation = %v, want %v", e.Data, want.Data)
	}
}

func TestExpmLargeNormScaling(t *testing.T) {
	// Stiff diagonal + coupling with norm far above theta13 exercises the
	// scaling-and-squaring path.
	a := FromRows([][]float64{{-1000, 1}, {0, -1}})
	e, err := Expm(a)
	if err != nil {
		t.Fatal(err)
	}
	// Analytic: e^A = [[e^-1000, (e^-1 - e^-1000)/999], [0, e^-1]].
	if math.Abs(e.At(1, 1)-math.Exp(-1)) > 1e-12 {
		t.Errorf("e[1][1] = %v, want %v", e.At(1, 1), math.Exp(-1))
	}
	want01 := (math.Exp(-1) - math.Exp(-1000)) / 999
	if math.Abs(e.At(0, 1)-want01) > 1e-12 {
		t.Errorf("e[0][1] = %v, want %v", e.At(0, 1), want01)
	}
	if e.At(1, 0) != 0 {
		t.Errorf("e[1][0] = %v, want 0", e.At(1, 0))
	}
}

// Property: expm(A)·expm(-A) == I for random small matrices.
func TestQuickExpmInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := randMatrix(rng, n)
		ea, err := Expm(a)
		if err != nil {
			return false
		}
		ena, err := Expm(a.Clone().Scale(-1))
		if err != nil {
			return false
		}
		return Equalish(Mul(ea, ena), Eye(n), 1e-8)
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: expm(A/2)² == expm(A).
func TestQuickExpmSquaring(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a := randMatrix(rng, n)
		ea, err := Expm(a)
		if err != nil {
			return false
		}
		eh, err := Expm(a.Clone().Scale(0.5))
		if err != nil {
			return false
		}
		return Equalish(Mul(eh, eh), ea, 1e-8)
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestExpmVec(t *testing.T) {
	a := FromRows([][]float64{{-1, 0}, {0, -2}})
	y, err := ExpmVec(a, 2, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-math.Exp(-2)) > 1e-12 || math.Abs(y[1]-math.Exp(-4)) > 1e-12 {
		t.Fatalf("ExpmVec = %v", y)
	}
}

func TestSymEigKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := SymEig(a, 1e-13, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-1) > 1e-10 || math.Abs(vals[1]-3) > 1e-10 {
		t.Fatalf("eigenvalues = %v", vals)
	}
	// Check A v = λ v for each column.
	for k := 0; k < 2; k++ {
		v := []float64{vecs.At(0, k), vecs.At(1, k)}
		av := a.MulVec(v)
		for i := range av {
			if math.Abs(av[i]-vals[k]*v[i]) > 1e-10 {
				t.Fatalf("A v != λ v for k=%d", k)
			}
		}
	}
}

func TestSymEigRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 12
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	vals, vecs, err := SymEig(a, 1e-13, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Trace preserved.
	var tr, sum float64
	for i := 0; i < n; i++ {
		tr += a.At(i, i)
		sum += vals[i]
	}
	if math.Abs(tr-sum) > 1e-9 {
		t.Errorf("trace %v != eigenvalue sum %v", tr, sum)
	}
	// Residual per eigenpair.
	for k := 0; k < n; k++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = vecs.At(i, k)
		}
		av := a.MulVec(v)
		for i := range av {
			if math.Abs(av[i]-vals[k]*v[i]) > 1e-8 {
				t.Fatalf("eigenpair %d residual too large", k)
			}
		}
	}
	// Ascending order.
	for k := 1; k < n; k++ {
		if vals[k] < vals[k-1] {
			t.Fatal("eigenvalues not sorted")
		}
	}
}

func TestSliceAndFromRowsPanics(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	s := a.Slice(1, 2)
	if s.At(0, 0) != 1 || s.At(0, 1) != 2 {
		t.Fatal("Slice wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1}, {2, 3}})
}

func BenchmarkExpm30(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	a := randMatrix(rng, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Expm(a); err != nil {
			b.Fatal(err)
		}
	}
}
