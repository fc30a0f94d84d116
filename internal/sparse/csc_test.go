package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

// randomSparse builds a random n-by-n matrix with a guaranteed dominant
// diagonal, so it is always nonsingular.
func randomSparse(rng *rand.Rand, n int, density float64) *CSC {
	t := NewTriplet(n, n)
	for i := 0; i < n; i++ {
		rowAbs := 1.0
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				v := rng.NormFloat64()
				t.Add(i, j, v)
				rowAbs += math.Abs(v)
			}
		}
		t.Add(i, i, rowAbs+1)
	}
	return t.ToCSC()
}

// solve computes dst = A⁻¹ b on a fresh workspace.
func solve(f Factorization, dst, b []float64) {
	f.SolveWith(dst, b, make([]float64, f.N()))
}

// randomSPD builds a random symmetric positive definite matrix as a grid-like
// Laplacian plus a positive diagonal.
func randomSPD(rng *rand.Rand, n int) *CSC {
	t := NewTriplet(n, n)
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = 1 + rng.Float64()
	}
	for k := 0; k < 3*n; k++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j {
			continue
		}
		g := rng.Float64()
		t.Add(i, j, -g)
		t.Add(j, i, -g)
		diag[i] += g
		diag[j] += g
	}
	for i := 0; i < n; i++ {
		t.Add(i, i, diag[i])
	}
	return t.ToCSC()
}

func TestTripletToCSCSumsDuplicates(t *testing.T) {
	tr := NewTriplet(3, 3)
	tr.Add(0, 0, 1)
	tr.Add(0, 0, 2)
	tr.Add(2, 1, -1)
	tr.Add(1, 1, 4)
	tr.Add(2, 1, 0.5)
	m := tr.ToCSC()
	if got := m.At(0, 0); got != 3 {
		t.Errorf("At(0,0) = %v, want 3", got)
	}
	if got := m.At(2, 1); got != -0.5 {
		t.Errorf("At(2,1) = %v, want -0.5", got)
	}
	if got := m.At(1, 1); got != 4 {
		t.Errorf("At(1,1) = %v, want 4", got)
	}
	if got := m.At(0, 2); got != 0 {
		t.Errorf("At(0,2) = %v, want 0", got)
	}
	if m.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3", m.NNZ())
	}
}

// Duplicates are summed in the order they were added, in short columns and
// long ones alike: each sum is checked bit for bit against a left-to-right
// sum of its stamps, with magnitudes mixed so that any other order rounds
// differently.
func TestTripletToCSCSumsInStampOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, length := range []int{5, 13, 64, 65, 500} {
		tr := NewTriplet(7, 2)
		want := map[int]float64{}
		seen := map[int]bool{}
		for k := 0; k < length; k++ {
			i := rng.Intn(7)
			v := math.Ldexp(rng.Float64()-0.5, rng.Intn(120)-60)
			tr.Add(i, 1, v)
			if seen[i] {
				want[i] += v
			} else {
				want[i], seen[i] = v, true
			}
		}
		m := tr.ToCSC()
		checkCSC(t, m)
		for i, w := range want {
			if got := m.At(i, 1); math.Float64bits(got) != math.Float64bits(w) {
				t.Errorf("column of %d stamps: At(%d,1) = %v, want the stamp-order sum %v", length, i, got, w)
			}
		}
	}
}

// checkCSC asserts the full CSC invariant set every routine in this package
// relies on — At's binary search in particular assumes strictly sorted,
// duplicate-free row indices within each column. The actual checks live in
// the exported CheckCSC (invariants.go) so that the dist, transient, and
// serve tests can assert the same invariants without duplicating them.
func checkCSC(t *testing.T, m *CSC) {
	t.Helper()
	if err := CheckCSC(m); err != nil {
		t.Fatal(err)
	}
}

func TestCSCColumnsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	checkCSC(t, randomSparse(rng, 40, 0.2))
	checkCSC(t, randomSPD(rng, 30))
	checkCSC(t, Identity(7))
	// Derived matrices keep the invariants too.
	a := randomSparse(rng, 25, 0.15)
	b := randomSparse(rng, 25, 0.15)
	checkCSC(t, a.Transpose())
	checkCSC(t, Add(2, a, -3, b))
	checkCSC(t, a.Clone().Scale(0).DropZeros(0))
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomSparse(rng, 25, 0.3)
	d := m.Dense()
	x := make([]float64, 25)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, 25)
	m.MulVec(y, x)
	for i := 0; i < 25; i++ {
		var want float64
		for j := 0; j < 25; j++ {
			want += d[i][j] * x[j]
		}
		if !almostEqual(y[i], want, 1e-12) {
			t.Fatalf("MulVec[%d] = %v, want %v", i, y[i], want)
		}
	}
}

func TestMulVecTMatchesTransposeMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomSparse(rng, 30, 0.2)
	mt := m.Transpose()
	x := make([]float64, 30)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y1 := make([]float64, 30)
	y2 := make([]float64, 30)
	m.MulVecT(y1, x)
	mt.MulVec(y2, x)
	for i := range y1 {
		if !almostEqual(y1[i], y2[i], 1e-12) {
			t.Fatalf("MulVecT[%d] = %v, Transpose().MulVec = %v", i, y1[i], y2[i])
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randomSparse(rng, 20, 0.25)
	tt := m.Transpose().Transpose()
	if tt.NNZ() != m.NNZ() {
		t.Fatalf("NNZ changed: %d -> %d", m.NNZ(), tt.NNZ())
	}
	for j := 0; j < m.Cols; j++ {
		for p := m.Colptr[j]; p < m.Colptr[j+1]; p++ {
			if tt.Rowidx[p] != m.Rowidx[p] || tt.Values[p] != m.Values[p] {
				t.Fatalf("transpose involution mismatch at col %d", j)
			}
		}
	}
}

func TestAddLinearCombination(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomSparse(rng, 15, 0.3)
	b := randomSparse(rng, 15, 0.3)
	c := Add(2, a, -3, b)
	da, db, dc := a.Dense(), b.Dense(), c.Dense()
	for i := 0; i < 15; i++ {
		for j := 0; j < 15; j++ {
			want := 2*da[i][j] - 3*db[i][j]
			if !almostEqual(dc[i][j], want, 1e-12) {
				t.Fatalf("Add mismatch at (%d,%d): got %v want %v", i, j, dc[i][j], want)
			}
		}
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(5)
	x := []float64{1, 2, 3, 4, 5}
	y := make([]float64, 5)
	id.MulVec(y, x)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("Identity.MulVec[%d] = %v", i, y[i])
		}
	}
}

func TestIsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	spd := randomSPD(rng, 30)
	if !spd.IsSymmetric(0) {
		t.Error("randomSPD not symmetric")
	}
	asym := randomSparse(rng, 30, 0.2)
	if asym.IsSymmetric(1e-14) {
		t.Error("random matrix unexpectedly symmetric")
	}
}

// TestIsSymmetricUnionRule: |a_ij − a_ji| ≤ tol over the union of both
// patterns, an absent entry reading 0, whatever the two patterns' column
// counts — a stored zero whose mirror is absent is symmetric both when the
// counts differ and when they happen to match (the cyclic case, which a
// row-by-row comparison of the patterns read as unsymmetric).
func TestIsSymmetricUnionRule(t *testing.T) {
	// csc builds a 3×3 matrix from its columns' (row, value) entries, which
	// are stored as given, zeros included.
	csc := func(cols ...[][2]float64) *CSC {
		m := &CSC{Rows: 3, Cols: len(cols), Colptr: []int{0}}
		for _, col := range cols {
			for _, e := range col {
				m.Rowidx = append(m.Rowidx, int(e[0]))
				m.Values = append(m.Values, e[1])
			}
			m.Colptr = append(m.Colptr, len(m.Rowidx))
		}
		return m
	}
	cases := []struct {
		name string
		m    *CSC
		tol  float64
		want bool
	}{
		{"symmetric", csc([][2]float64{{0, 2}, {1, -1}}, [][2]float64{{0, -1}, {1, 2}}, [][2]float64{{2, 1}}), 0, true},
		{"values differ", csc([][2]float64{{0, 2}, {1, -1}}, [][2]float64{{0, -1.5}, {1, 2}}, [][2]float64{{2, 1}}), 0.4, false},
		{"values differ within tol", csc([][2]float64{{0, 2}, {1, -1}}, [][2]float64{{0, -1.5}, {1, 2}}, [][2]float64{{2, 1}}), 0.5, true},
		{"stored zero, mirror absent", csc([][2]float64{{0, 1}, {1, 0}}, [][2]float64{{1, 1}}, [][2]float64{{2, 1}}), 0, true},
		{"cyclic stored zeros, equal counts", csc([][2]float64{{0, 1}, {1, 0}}, [][2]float64{{1, 1}, {2, 0}}, [][2]float64{{0, 0}, {2, 1}}), 0, true},
		{"cyclic entries, equal counts", csc([][2]float64{{0, 1}, {1, 1e-9}}, [][2]float64{{1, 1}, {2, 0}}, [][2]float64{{0, 0}, {2, 1}}), 0, false},
		{"entry, mirror absent", csc([][2]float64{{0, 1}, {2, 3}}, [][2]float64{{1, 1}}, [][2]float64{{2, 1}}), 2.5, false},
		{"entry within tol, mirror absent", csc([][2]float64{{0, 1}, {2, 3}}, [][2]float64{{1, 1}}, [][2]float64{{2, 1}}), 3, true},
		{"not square", csc([][2]float64{{0, 1}}, [][2]float64{{1, 1}}), 0, false},
	}
	for _, c := range cases {
		if got := c.m.IsSymmetric(c.tol); got != c.want {
			t.Errorf("%s: IsSymmetric(%g) = %v, want %v", c.name, c.tol, got, c.want)
		}
		if allocs := testing.AllocsPerRun(10, func() { c.m.IsSymmetric(c.tol) }); allocs != 0 {
			t.Errorf("%s: IsSymmetric allocates %v objects", c.name, allocs)
		}
	}
}

func TestNorms(t *testing.T) {
	tr := NewTriplet(2, 2)
	tr.Add(0, 0, 1)
	tr.Add(1, 0, -3)
	tr.Add(0, 1, 2)
	m := tr.ToCSC()
	if got := m.OneNorm(); got != 4 {
		t.Errorf("OneNorm = %v, want 4", got)
	}
	if got := m.InfNorm(); got != 3 {
		t.Errorf("InfNorm = %v, want 3", got)
	}
}

func TestDropZeros(t *testing.T) {
	tr := NewTriplet(3, 3)
	tr.Add(0, 0, 1e-20)
	tr.Add(1, 1, 2)
	tr.Add(2, 0, 1e-18)
	m := tr.ToCSC().DropZeros(1e-15)
	if m.NNZ() != 1 {
		t.Fatalf("NNZ after DropZeros = %d, want 1", m.NNZ())
	}
	if m.At(1, 1) != 2 {
		t.Errorf("surviving entry wrong")
	}
}

func TestScaleAndClone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomSparse(rng, 10, 0.3)
	c := m.Clone()
	c.Scale(2)
	for p := range m.Values {
		if !almostEqual(c.Values[p], 2*m.Values[p], 1e-15) {
			t.Fatalf("Scale mismatch at %d", p)
		}
	}
}

// Property: (A+B)x == Ax + Bx for random sparse A, B and dense x.
func TestQuickAddDistributes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(20)
		a := randomSparse(r, n, 0.3)
		b := randomSparse(r, n, 0.3)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		sum := Add(1, a, 1, b)
		y1 := make([]float64, n)
		y2 := make([]float64, n)
		tmp := make([]float64, n)
		sum.MulVec(y1, x)
		a.MulVec(y2, x)
		b.MulVec(tmp, x)
		for i := range y2 {
			y2[i] += tmp[i]
		}
		for i := range y1 {
			if !almostEqual(y1[i], y2[i], 1e-10) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMulVecAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randomSparse(rng, 12, 0.4)
	x := make([]float64, 12)
	dst := make([]float64, 12)
	want := make([]float64, 12)
	for i := range x {
		x[i] = rng.NormFloat64()
		dst[i] = rng.NormFloat64()
		want[i] = dst[i]
	}
	tmp := make([]float64, 12)
	m.MulVec(tmp, x)
	for i := range want {
		want[i] += 2.5 * tmp[i]
	}
	m.MulVecAdd(dst, 2.5, x)
	for i := range dst {
		if !almostEqual(dst[i], want[i], 1e-12) {
			t.Fatalf("MulVecAdd[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Identity(3).At(3, 0)
}
