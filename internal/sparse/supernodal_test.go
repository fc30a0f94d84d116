package sparse

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/matex-sim/matex/internal/dense"
)

// The reference for every LDLᵀ test is internal/dense's partial-pivoting LU
// on the densified matrix: it shares no code (no ordering, no elimination
// tree, no panels) with the engine under test.

// denseSolve returns A⁻¹b through the dense oracle.
func denseSolve(t testing.TB, a *CSC, b []float64) []float64 {
	t.Helper()
	lu, err := dense.FactorLU(dense.FromRows(a.Dense()))
	if err != nil {
		t.Fatalf("dense oracle: %v", err)
	}
	return lu.Solve(b)
}

func maxRelDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		scale := math.Max(math.Abs(a[i]), math.Abs(b[i]))
		if scale < 1 {
			scale = 1
		}
		if d := math.Abs(a[i]-b[i]) / scale; d > worst {
			worst = d
		}
	}
	return worst
}

// checkFactorization verifies P·A·Pᵀ = L·D·Lᵀ entry by entry from the
// materialized factors, plus the structural and padding invariants that the
// matexdebug hooks assert (run here so release builds check them too).
func checkFactorization(t *testing.T, a *CSC, f *LDLT) {
	t.Helper()
	if err := CheckSymbolic(f.Symbolic()); err != nil {
		t.Fatal(err)
	}
	if err := CheckFactor(f); err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	l := f.L()
	if err := CheckCSC(l); err != nil {
		t.Fatalf("L(): %v", err)
	}
	if l.NNZ() != f.Symbolic().LNZ() {
		t.Fatalf("L() has %d entries, analysis says %d", l.NNZ(), f.Symbolic().LNZ())
	}
	ld := l.Dense()
	d, perm, ad := f.D(), f.Perm(), a.Dense()
	for i := 0; i < n; i++ {
		ld[i][i] = 1
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := 0.0
			for k := 0; k <= j; k++ {
				sum += ld[i][k] * d[k] * ld[j][k]
			}
			if want := ad[perm[i]][perm[j]]; math.Abs(sum-want) > 1e-11*(1+math.Abs(want)) {
				t.Fatalf("(L·D·Lᵀ)[%d,%d] = %g, P·A·Pᵀ has %g", i, j, sum, want)
			}
		}
	}
}

// checkSolves drives both solve entry points of one factor against the
// dense oracle: SolveWith within 1e-10, a second SolveWith (through a
// workspace left dirty by the first) bitwise equal to the first, a third
// into a dst prefilled with NaN (SolveWith's gather scratch) bitwise equal
// too, and Solve (its own workspace, dst aliasing b) bitwise equal to
// SolveWith.
func checkSolves(t *testing.T, a *CSC, f *LDLT, rng *rand.Rand) {
	t.Helper()
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := make([]float64, n)
	work := make([]float64, n)
	f.SolveWith(want, b, work)
	if d := maxRelDiff(want, denseSolve(t, a, b)); d > 1e-10 {
		t.Fatalf("SolveWith diverges from the dense oracle by %g", d)
	}
	again := make([]float64, n)
	f.SolveWith(again, b, work)
	for i := range again {
		if math.Float64bits(again[i]) != math.Float64bits(want[i]) {
			t.Fatalf("second SolveWith entry %d: %v, first %v", i, again[i], want[i])
		}
	}
	dirty := make([]float64, n)
	for i := range dirty {
		dirty[i] = math.NaN()
	}
	f.SolveWith(dirty, b, work)
	for i := range dirty {
		if math.Float64bits(dirty[i]) != math.Float64bits(want[i]) {
			t.Fatalf("SolveWith into a NaN dst, entry %d: %v, clean dst %v", i, dirty[i], want[i])
		}
	}
	f.Solve(b, b)
	for i := range b {
		if b[i] != want[i] {
			t.Fatalf("Solve entry %d: %v, SolveWith %v", i, b[i], want[i])
		}
	}
}

// The engine must reproduce the dense oracle on the γ-sweep harness: every
// shift of one pattern through one analysis and one reused factor, under
// every ordering.
func TestLDLTMatchesDenseAcrossShifts(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	c, g := shiftFamily(rng, 14)
	base := Add(1, c, 1e-10, g)
	for _, order := range []Ordering{OrderNatural, OrderMinDegree, OrderND} {
		sym, err := AnalyzeLDLT(base, order)
		if err != nil {
			t.Fatal(err)
		}
		var f *LDLT
		for shift := 0; shift < 10; shift++ {
			a := Add(1, c, math.Exp(rng.Float64()*6-3), g)
			if f == nil {
				f, err = sym.Refactor(a)
			} else {
				err = sym.RefactorInto(f, a)
			}
			if err != nil {
				t.Fatalf("order %v shift %d: %v", order, shift, err)
			}
			if shift%5 == 0 {
				checkFactorization(t, a, f)
				checkSolves(t, a, f, rng)
			}
			b := make([]float64, a.Rows)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			x := make([]float64, a.Rows)
			f.Solve(x, b)
			if d := maxRelDiff(x, denseSolve(t, a, b)); d > 1e-10 {
				t.Fatalf("order %v shift %d: diverges from the dense oracle by %g", order, shift, d)
			}
			if r := residual(a, x, b); r > 1e-9 {
				t.Fatalf("order %v shift %d: residual %g", order, shift, r)
			}
		}
	}
}

// Small and irregular patterns exercise panel edge cases: every n from 1 up,
// random patterns.
func TestLDLTSmallSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for n := 1; n <= 40; n++ {
		a := randomSPD(rng, n)
		f, err := FactorLDLT(a, OrderDefault)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		f.Solve(x, b)
		if d := maxRelDiff(x, denseSolve(t, a, b)); d > 1e-10 {
			t.Fatalf("n=%d: diverges from the dense oracle by %g", n, d)
		}
	}
}

// denseSPD is a fully coupled k×k block: one elimination chain, so its
// natural supernodes are exactly min(k, 32)-wide panels.
func denseSPD(k int) *CSC {
	tr := NewTriplet(k, k)
	for i := 0; i < k; i++ {
		tr.Add(i, i, float64(k)+1)
		for j := 0; j < i; j++ {
			v := -1 / float64(1+(i+2*j)%5)
			tr.Add(i, j, v)
			tr.Add(j, i, v)
		}
	}
	return tr.ToCSC()
}

func diagSPD(n int) *CSC {
	tr := NewTriplet(n, n)
	for i := 0; i < n; i++ {
		tr.Add(i, i, float64(i+2))
	}
	return tr.ToCSC()
}

func pathSPD(n int) *CSC {
	tr := NewTriplet(n, n)
	for i := 0; i < n; i++ {
		tr.Add(i, i, 2.5)
		if i+1 < n {
			tr.Add(i, i+1, -1)
			tr.Add(i+1, i, -1)
		}
	}
	return tr.ToCSC()
}

// arrowSPD couples every node to the last one only: eliminated in natural
// order it has no fill and every column but the last pair is a singleton
// supernode with one below-block row.
func arrowSPD(n int) *CSC {
	tr := NewTriplet(n, n)
	for i := 0; i < n-1; i++ {
		tr.Add(i, i, 3)
		tr.Add(i, n-1, -1)
		tr.Add(n-1, i, -1)
	}
	tr.Add(n-1, n-1, float64(n))
	return tr.ToCSC()
}

// coupledBlocksSPD puts one dense block per width on the diagonal, followed
// by a dense shared block of the given size; every node of every leading
// block also couples to the first `rows` shared nodes. Eliminated in natural
// order, each leading block is one panel of exactly its width with `rows`
// below-block rows, and the shared block is the root panel. Diagonally
// dominant, hence SPD.
func coupledBlocksSPD(widths []int, shared, rows int) *CSC {
	n := shared
	for _, w := range widths {
		n += w
	}
	tr := NewTriplet(n, n)
	rowSum := make([]float64, n)
	couple := func(i, j int, v float64) {
		tr.Add(i, j, v)
		tr.Add(j, i, v)
		rowSum[i] += math.Abs(v)
		rowSum[j] += math.Abs(v)
	}
	s0 := n - shared
	c0 := 0
	for _, w := range widths {
		for i := c0; i < c0+w; i++ {
			for j := c0; j < i; j++ {
				couple(i, j, -1/float64(1+(i+2*j)%5))
			}
			for r := 0; r < rows; r++ {
				couple(i, s0+r, -0.5/float64(1+(i+r)%3))
			}
		}
		c0 += w
	}
	for i := s0; i < n; i++ {
		for j := s0; j < i; j++ {
			couple(i, j, -1/float64(1+(i+j)%4))
		}
	}
	for i := 0; i < n; i++ {
		tr.Add(i, i, rowSum[i]+1)
	}
	return tr.ToCSC()
}

func panelWidths(sym *Symbolic) []int {
	w := make([]int, sym.Supernodes())
	for s := range w {
		w[s] = int(sym.sn.ptr[s+1] - sym.sn.ptr[s])
	}
	return w
}

// Everything runs on panels, so the degenerate panel shapes — tiny systems,
// patterns that do not amalgamate at all, and a block wider than the panel
// cap — go through every entry point against the dense oracle. The natural
// ordering pins the column order, hence the supernode widths the case names.
func TestPanelShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	allOnes := func(n int) []int {
		w := make([]int, n)
		for i := range w {
			w[i] = 1
		}
		return w
	}
	cases := []struct {
		name   string
		a      *CSC
		widths []int // nil: not pinned
	}{
		{"n1", randomSPD(rng, 1), []int{1}},
		{"n2", randomSPD(rng, 2), nil},
		{"n3", randomSPD(rng, 3), nil},
		{"diagonal", diagSPD(17), allOnes(17)},
		{"path", pathSPD(33), nil},
		{"arrow", arrowSPD(21), append(allOnes(19), 2)},
		{"dense40", denseSPD(40), []int{32, 8}},
		// One dense block per width class: 1, 2, 3, odd, even, odd above the
		// pair-blocking stride, and the 32-column cap with a remainder.
		{"widths", blockDiagCSC(denseSPD(1), denseSPD(2), denseSPD(3), denseSPD(5), denseSPD(8), denseSPD(17), denseSPD(33)),
			[]int{1, 2, 3, 5, 8, 17, 32, 1}},
		// The same classes with below-block rows, each block with three rows
		// in a shared trailing panel: the singleton's split dot (one pair
		// and a tail), the leading passes alone (2, 3), and one panel per
		// w mod 4 at or above the 4-column stride (4, 6, 7, 9).
		{"coupled", coupledBlocksSPD([]int{1, 2, 3, 4, 6, 7, 9}, 10, 3), []int{1, 2, 3, 4, 6, 7, 9, 10}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sym, err := AnalyzeLDLT(tc.a, OrderNatural)
			if err != nil {
				t.Fatal(err)
			}
			if got := panelWidths(sym); tc.widths != nil && !slices.Equal(got, tc.widths) {
				t.Fatalf("supernode widths %v, want %v", got, tc.widths)
			}
			f, err := sym.Refactor(tc.a)
			if err != nil {
				t.Fatal(err)
			}
			checkFactorization(t, tc.a, f)
			checkSolves(t, tc.a, f, rng)
			// A second numeric pass into the same factor must land on the
			// same answers (workspaces left clean).
			if err := sym.RefactorInto(f, tc.a); err != nil {
				t.Fatal(err)
			}
			checkSolves(t, tc.a, f, rng)
		})
	}
}

// Nested dissection on a coupled mesh produces wide separator supernodes;
// the amalgamation must find them.
func TestSupernodesAmalgamateOnNDMesh(t *testing.T) {
	sym, err := AnalyzeLDLT(meshSPD(48, 48), OrderND)
	if err != nil {
		t.Fatal(err)
	}
	if 2*sym.Supernodes() > sym.N() {
		t.Fatalf("weak amalgamation: %d supernodes for %d columns", sym.Supernodes(), sym.N())
	}
}

// A singular input must fail with ErrSingular mid-way through a multi-panel
// factorization, and the factor must refill cleanly afterwards.
func TestPanelSingular(t *testing.T) {
	n := 40
	lap := func(leak float64) *CSC {
		tr := NewTriplet(n, n)
		for i := 0; i < n-1; i++ {
			tr.Add(i, i+1, -1)
			tr.Add(i+1, i, -1)
			tr.Add(i, i, 1)
			tr.Add(i+1, i+1, 1)
		}
		tr.Add(0, 0, leak)
		return tr.ToCSC()
	}
	good, bad := lap(0.5), lap(0)
	sym, err := AnalyzeLDLT(good, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sym.Refactor(bad); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular Laplacian: got %v, want ErrSingular", err)
	}
	f, err := sym.Refactor(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := sym.RefactorInto(f, bad); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular refill: got %v, want ErrSingular", err)
	}
	if err := sym.RefactorInto(f, good); err != nil {
		t.Fatal(err)
	}
	checkFactorization(t, good, f)
	checkSolves(t, good, f, rand.New(rand.NewSource(66)))
}

// The refactorization and every solve flavour must stay allocation-free on
// a multi-panel factor.
func TestSupernodalZeroAllocs(t *testing.T) {
	a := multiDomainSPD(40, 4)
	n := a.Rows
	sym, err := AnalyzeLDLT(a, OrderMinDegree)
	if err != nil {
		t.Fatal(err)
	}
	f, err := sym.Refactor(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	x := make([]float64, n)
	work := make([]float64, n)
	for i := range b {
		b[i] = float64(i%13) - 6
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := sym.RefactorInto(f, a); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("RefactorInto allocates %v/op", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		f.SolveWith(x, b, work)
	}); allocs != 0 {
		t.Errorf("SolveWith allocates %v/op", allocs)
	}
}
