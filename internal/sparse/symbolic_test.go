package sparse

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// meshSPD builds an nx×ny grid Laplacian with a ground leak (SPD) — the
// shape of a PDN conductance matrix.
func meshSPD(nx, ny int) *CSC {
	a := gridLaplacian(nx, ny)
	for j := 0; j < a.Cols; j++ {
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			if a.Rowidx[p] == j {
				a.Values[p] += 0.01
			}
		}
	}
	return a
}

// multiDomainSPD tiles copies of an nx×nx mesh down the block diagonal —
// the multi-domain PDN shape whose elimination forest actually forks.
func multiDomainSPD(nx, domains int) *CSC {
	a := meshSPD(nx, nx)
	n := a.Rows
	tr := NewTriplet(n*domains, n*domains)
	for c := 0; c < domains; c++ {
		off := c * n
		for j := 0; j < n; j++ {
			for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
				tr.Add(off+a.Rowidx[p], off+j, a.Values[p])
			}
		}
	}
	return tr.ToCSC()
}

// shiftFamily returns C + γG for a fixed-pattern SPD pair, mimicking the
// adaptive solvers' scalar-shift grid. The perturbation is a symmetric
// function of (i, j) so C stays symmetric.
func shiftFamily(rng *rand.Rand, n int) (c, g *CSC) {
	g = meshSPD(n, n)
	// C with the same pattern topology: diagonal capacitances only would
	// change the union pattern, so perturb the same grid symmetrically.
	c = meshSPD(n, n)
	_ = rng
	for j := 0; j < c.Cols; j++ {
		for p := c.Colptr[j]; p < c.Colptr[j+1]; p++ {
			i := c.Rowidx[p]
			lo, hi := i, j
			if lo > hi {
				lo, hi = hi, lo
			}
			c.Values[p] *= 1 + 0.1*float64((lo*37+hi*101)%19)/19
		}
	}
	return c, g
}

func TestRefactorMatchesFreshAcrossShifts(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	c, g := shiftFamily(rng, 12)
	n := c.Rows

	// One analysis for the whole γ family.
	base := Add(1, c, 1e-10, g)
	for _, order := range []Ordering{OrderNatural, OrderMinDegree, OrderND} {
		sym, err := AnalyzeLDLT(base, order)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x1 := make([]float64, n)
		x2 := make([]float64, n)
		gamma := 1e-10
		for s := 0; s < 10; s++ {
			m := Add(1, c, gamma, g)
			fRef, err := sym.Refactor(m)
			if err != nil {
				t.Fatalf("order=%v shift %d: Refactor: %v", order, s, err)
			}
			fFresh, err := FactorLDLT(m, order)
			if err != nil {
				t.Fatalf("order=%v shift %d: FactorLDLT: %v", order, s, err)
			}
			solve(fRef, x1, b)
			solve(fFresh, x2, b)
			for i := range x1 {
				if d := math.Abs(x1[i] - x2[i]); d > 1e-14*(1+math.Abs(x2[i])) {
					t.Fatalf("order=%v shift %d: refactor/fresh mismatch at %d: %g vs %g", order, s, i, x1[i], x2[i])
				}
			}
			if r := residual(m, x1, b); r > 1e-10 {
				t.Fatalf("order=%v shift %d: residual %g", order, s, r)
			}
			gamma *= math.Sqrt2
		}
	}
}

func TestRefactorIntoReusesFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := randomSPD(rng, 40)
	sym, err := AnalyzeLDLT(a, OrderDefault)
	if err != nil {
		t.Fatal(err)
	}
	f, err := sym.Refactor(a)
	if err != nil {
		t.Fatal(err)
	}
	// Scale the values (same pattern), refactor in place, check the solve.
	a2 := a.Clone()
	for i := range a2.Values {
		a2.Values[i] *= 3
	}
	if err := sym.RefactorInto(f, a2); err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 40)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, 40)
	solve(f, x, b)
	if r := residual(a2, x, b); r > 1e-10 {
		t.Fatalf("refactored-in-place residual %g", r)
	}
	// A factor from a different analysis is rejected.
	sym2, _ := AnalyzeLDLT(a, OrderDefault)
	if err := sym2.RefactorInto(f, a2); err == nil {
		t.Fatal("RefactorInto accepted a factor from a different analysis")
	}
	// A wrong-size matrix is refused by the function it was given to.
	small := randomSPD(rng, 39)
	if _, err := sym.Refactor(small); err == nil || !strings.HasPrefix(err.Error(), "sparse: Refactor dimension mismatch") {
		t.Errorf("Refactor of a 39x39 matrix on a 40-node analysis: %v", err)
	}
	if err := sym.RefactorInto(f, small); err == nil || !strings.HasPrefix(err.Error(), "sparse: RefactorInto dimension mismatch") {
		t.Errorf("RefactorInto of a 39x39 matrix on a 40-node analysis: %v", err)
	}
}

func TestRefactorSingularLeavesCleanWorkspace(t *testing.T) {
	// [2 1; 1 0.5] has a zero second pivot; after the failure the same
	// factor must still refactorize a healthy matrix correctly (the scatter
	// workspace must have been cleaned).
	tr := NewTriplet(2, 2)
	tr.Add(0, 0, 2)
	tr.Add(0, 1, 1)
	tr.Add(1, 0, 1)
	tr.Add(1, 1, 0.5)
	bad := tr.ToCSC()
	sym, err := AnalyzeLDLT(bad, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	good := tr.ToCSC()
	good.Values[3] = 5 // diagonal (1,1) entry
	f, err := sym.Refactor(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := sym.RefactorInto(f, bad); err == nil {
		t.Fatal("expected singular failure")
	}
	if err := sym.RefactorInto(f, good); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	solve(f, x, []float64{1, 0})
	if r := residual(good, x, []float64{1, 0}); r > 1e-12 {
		t.Fatalf("post-failure refactor residual %g", r)
	}
}

// TestSolveRace hammers one shared factor with concurrent solves on caller
// and pooled workspaces — run under -race this proves the solve API is
// re-entrant (the factor-owned gather buffer is claimed by one solve, the
// rest fall back to the pool).
func TestSolveRace(t *testing.T) {
	a := multiDomainSPD(30, 4)
	n := a.Rows
	f, err := FactorLDLT(a, OrderMinDegree)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			x := make([]float64, n)
			work := make([]float64, n)
			for it := 0; it < 25; it++ {
				if it%2 == 0 {
					f.SolveWith(x, b, work)
				} else {
					solve(f, x, b)
				}
				if r := residual(a, x, b); r > 1e-10 {
					t.Errorf("goroutine %d iter %d: residual %g", seed, it, r)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestRefactorSolveZeroAllocs is the steady-state allocation contract of the
// numeric path: refactorization into an existing factor plus a solve with a
// caller-provided workspace allocate nothing.
func TestRefactorSolveZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	a := meshSPD(16, 16)
	n := a.Rows
	sym, err := AnalyzeLDLT(a, OrderDefault)
	if err != nil {
		t.Fatal(err)
	}
	f, err := sym.Refactor(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	work := make([]float64, n)
	if allocs := testing.AllocsPerRun(50, func() {
		if err := sym.RefactorInto(f, a); err != nil {
			t.Fatal(err)
		}
		f.SolveWith(x, b, work)
	}); allocs != 0 {
		t.Fatalf("steady-state refactor+solve allocated %.1f/run, want 0", allocs)
	}
}

func TestCacheSymbolicTierSharedAcrossShifts(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	c, g := shiftFamily(rng, 10)
	cache := NewCache(0)
	gamma := 1e-10
	var lastInfo FactorInfo
	for s := 0; s < 8; s++ {
		f, info, err := cache.FactorSum(1, c, gamma, g, OrderDefault)
		if err != nil {
			t.Fatal(err)
		}
		if f == nil || info.Hit {
			t.Fatalf("shift %d: unexpected acquisition %+v", s, info)
		}
		if !info.Refactored {
			t.Fatalf("shift %d: LDLT path did not refactor", s)
		}
		if s == 0 && info.SymbolicHit {
			t.Fatal("first shift claimed a symbolic hit")
		}
		if s > 0 && !info.SymbolicHit {
			t.Fatalf("shift %d recomputed the symbolic analysis", s)
		}
		lastInfo = info
		gamma *= math.Sqrt2
	}
	_ = lastInfo
	st := cache.Stats()
	if st.SymbolicMisses != 1 || st.SymbolicHits != 7 {
		t.Fatalf("symbolic tier stats = %+v, want 1 miss / 7 hits", st)
	}
	if st.SymbolicEntries != 1 {
		t.Fatalf("symbolic entries = %d, want 1", st.SymbolicEntries)
	}
	// Content-identical re-acquisition is a plain factor hit.
	if _, info, _ := cache.FactorSum(1, c, 1e-10, g, OrderDefault); !info.Hit {
		t.Fatalf("repeat acquisition missed: %+v", info)
	}
}

func TestCacheSymbolicFallbackToLU(t *testing.T) {
	// Symmetric but with a zero pivot that LDLT cannot pass: the cache must
	// fall back to LU and still solve.
	tr := NewTriplet(2, 2)
	tr.Add(0, 1, 1)
	tr.Add(1, 0, 1)
	a := tr.ToCSC()
	cache := NewCache(0)
	f, info, err := cache.Factor(a, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	if info.Refactored {
		t.Fatal("LU fallback wrongly reported as refactored")
	}
	if _, ok := f.(*LU); !ok {
		t.Fatalf("fallback produced %T, want *LU", f)
	}
	x := make([]float64, 2)
	solve(f, x, []float64{3, 5})
	if math.Abs(x[0]-5) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("fallback solve = %v", x)
	}
}

func TestPatternFingerprintIgnoresValues(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	a := randomSPD(rng, 15)
	b := a.Clone()
	for i := range b.Values {
		b.Values[i] *= 2.5
	}
	if PatternFingerprint(a) != PatternFingerprint(b) {
		t.Fatal("value change altered the pattern fingerprint")
	}
	c := a.Clone()
	c.Rowidx[0]++ // corrupt the pattern
	if PatternFingerprint(a) == PatternFingerprint(c) {
		t.Fatal("pattern change not reflected in the fingerprint")
	}
}
