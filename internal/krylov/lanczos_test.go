package krylov

import (
	"math"
	"math/rand"
	"testing"

	"github.com/matex-sim/matex/internal/dense"
	"github.com/matex-sim/matex/internal/sparse"
)

// randVec returns a deterministic pseudo-random vector of length n.
func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestLanczosMatchesArnoldi is the subspace-level equivalence contract: on
// random SPD RC systems, at a pinned dimension the Lanczos fast path and the
// Arnoldi reference span the same subspace and must produce the same e^{hA}v
// to roundoff; and at adaptive stopping both must land in the same accuracy
// class against dense expm.
func TestLanczosMatchesArnoldi(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		n := 24 + int(seed)
		cm, gm := rcSystem(n, 1e3, seed)
		a := denseA(cm, gm)
		gamma := 1e-12
		std, inv, rat := buildOps(t, cm, gm, gamma)
		v := randVec(n, seed+100)
		h := 2e-12
		truth, err := dense.ExpmVec(a, h, v)
		if err != nil {
			t.Fatal(err)
		}
		var truthScale float64 = 1
		for _, x := range truth {
			if a := math.Abs(x); a > truthScale {
				truthScale = a
			}
		}
		for _, tc := range []struct {
			name string
			op   *Op
			vv   []float64
		}{
			{"inverted", inv, v},
			{"rational", rat, padAug(v)},
			{"standard", std, padAug(v)},
		} {
			if !tc.op.SymmetricFor(tc.vv) {
				t.Fatalf("%s: operator unexpectedly not symmetric-eligible", tc.name)
			}
			// Both processes, same tolerance; each must land in the
			// empirical accuracy class against dense expm (the same class
			// krylov_test asserts for Arnoldi), which bounds their mutual
			// deviation. Exact equal-dimension identity is not a contract:
			// the two paths resolve near-algebraic modes differently by
			// design (invertChecked's shift ladder vs the spectral clamp).
			opts := Options{MaxDim: n + 2, Tol: 1e-10}
			subA, errA := Arnoldi(tc.op, tc.vv, []float64{h}, opts)
			if errA != nil {
				t.Fatalf("%s arnoldi: %v", tc.name, errA)
			}
			subL, errL := Lanczos(tc.op, tc.vv, []float64{h}, opts)
			if errL != nil {
				t.Fatalf("%s lanczos: %v", tc.name, errL)
			}
			if !subL.Lanczos() {
				t.Fatalf("%s: subspace not marked as Lanczos", tc.name)
			}
			got := make([]float64, tc.op.N())
			want := make([]float64, tc.op.N())
			if err := subA.EvalExp(h, want); err != nil {
				t.Fatalf("%s arnoldi eval: %v", tc.name, err)
			}
			if err := subL.EvalExp(h, got); err != nil {
				t.Fatalf("%s lanczos eval: %v", tc.name, err)
			}
			for i := range truth {
				if d := math.Abs(got[i] - truth[i]); d > 1e-6*truthScale {
					t.Errorf("%s: Lanczos off dense expm by %g at %d (m=%d)",
						tc.name, d, i, subL.Dim())
					break
				}
				if d := math.Abs(got[i] - want[i]); d > 1e-6*truthScale {
					t.Errorf("%s: Lanczos and Arnoldi differ by %g at %d (m=%d vs %d)",
						tc.name, d, i, subL.Dim(), subA.Dim())
					break
				}
			}
		}
	}
}

// padAug embeds v into the augmented space with inert auxiliary entries.
func padAug(v []float64) []float64 {
	out := make([]float64, len(v)+2)
	copy(out, v)
	return out
}

// TestLanczosBOrthogonality checks the generated basis is orthonormal in the
// operator's B-inner product and satisfies the three-term relation.
func TestLanczosBOrthogonality(t *testing.T) {
	n := 30
	cm, gm := rcSystem(n, 1e4, 9)
	_, inv, _ := buildOps(t, cm, gm, 1e-13)
	v := randVec(n, 5)
	sub, err := Lanczos(inv, v, []float64{1e-12}, Options{MaxDim: 20, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	m := sub.Dim()
	if m < 3 {
		t.Fatalf("dim %d too small to be interesting", m)
	}
	b := make([]float64, n)
	for i := 0; i < m; i++ {
		inv.applyB(b, sub.v[i])
		for j := 0; j <= i; j++ {
			d := dot(b, sub.v[j])
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(d-want) > 1e-8 {
				t.Errorf("VᵀBV[%d][%d] = %g, want %g", i, j, d, want)
			}
		}
	}
	// βV·(first basis vector) reproduces the start vector.
	got := make([]float64, n)
	for i := range got {
		got[i] = sub.Beta() * sub.v[0][i]
	}
	for i := range v {
		if math.Abs(got[i]-v[i]) > 1e-10*(1+math.Abs(v[i])) {
			t.Fatalf("β·v₁ does not reproduce the start vector at %d", i)
		}
	}
}

// TestGenerateRouting: auto picks Lanczos exactly when the operator and
// start vector qualify, and MethodArnoldi pins the reference path.
func TestGenerateRouting(t *testing.T) {
	n := 16
	cm, gm := rcSystem(n, 1e3, 7)
	_, inv, rat := buildOps(t, cm, gm, 1e-13)
	v := randVec(n, 8)

	sub, err := Generate(inv, v, []float64{1e-12}, Options{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Lanczos() || inv.Count.Lanczos != 1 {
		t.Error("auto mode did not take the Lanczos path on a symmetric inverted operator")
	}
	sub, err = Generate(inv, v, []float64{1e-12}, Options{Tol: 1e-8, Method: MethodArnoldi})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Lanczos() {
		t.Error("MethodArnoldi still produced a Lanczos subspace")
	}

	// Nonzero segment inputs break augmented-mode symmetry: auto must fall
	// back to Arnoldi.
	bu := make([]float64, n)
	bu[0] = 1
	rat.SetSegment(bu, make([]float64, n))
	va := padAug(v)
	if rat.SymmetricFor(va) {
		t.Fatal("rational op with inputs should not be symmetric-eligible")
	}
	sub, err = Generate(rat, va, []float64{1e-12}, Options{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Lanczos() {
		t.Error("auto mode used Lanczos on a non-symmetric configuration")
	}
	rat.ClearSegment()
	if !rat.SymmetricFor(va) {
		t.Error("ClearSegment should restore symmetric eligibility")
	}

	// An excited auxiliary chain also disqualifies the fast path.
	va[n+1] = 1
	if rat.SymmetricFor(va) {
		t.Error("start vector with active auxiliary chain should not be eligible")
	}

	// The override forces the fast path off regardless of structure.
	inv.SetSymmetric(false)
	if inv.SymmetricFor(v) {
		t.Error("SetSymmetric(false) did not disable the fast path")
	}
}

// TestLanczosSteadyStateZeroAlloc is the arena contract: with a shared
// workspace, regenerating subspaces spot after spot allocates nothing.
func TestLanczosSteadyStateZeroAlloc(t *testing.T) {
	n := 40
	cm, gm := rcSystem(n, 1e5, 21)
	factG, _, err := sparse.NewCache(0).Factor(gm, sparse.OrderDefault)
	if err != nil {
		t.Fatal(err)
	}
	op := NewInvertedOp(factG, cm, gm, nil) // nil counters: Dims growth is the caller's business
	v := randVec(n, 22)
	hCheck := []float64{1e-12}
	ws := DefaultWorkspaces.Get()
	defer DefaultWorkspaces.Put(ws)
	opts := Options{MaxDim: 30, Tol: 1e-9, Workspace: ws}
	dst := make([]float64, n)
	run := func() {
		sub, err := Lanczos(op, v, hCheck, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.EvalExp(5e-13, dst); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the arena
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("steady-state Lanczos generation allocates %.1f objects/run, want 0", allocs)
	}
}
