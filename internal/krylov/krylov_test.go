package krylov

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/matex-sim/matex/internal/dense"
	"github.com/matex-sim/matex/internal/sparse"
)

// rcSystem builds a small RC-like pair: G a grid Laplacian with ground leak,
// C a positive diagonal with the given spread (stiffness knob).
func rcSystem(n int, spread float64, seed int64) (cm, gm *sparse.CSC) {
	rng := rand.New(rand.NewSource(seed))
	gt := sparse.NewTriplet(n, n)
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = 0.05 // ground leak
	}
	for i := 0; i < n-1; i++ {
		g := 0.5 + rng.Float64()
		gt.Add(i, i+1, -g)
		gt.Add(i+1, i, -g)
		diag[i] += g
		diag[i+1] += g
	}
	for i := 0; i < n; i++ {
		gt.Add(i, i, diag[i])
	}
	ct := sparse.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		frac := float64(i) / float64(n-1)
		ct.Add(i, i, 1e-12*math.Pow(spread, -frac))
	}
	return ct.ToCSC(), gt.ToCSC()
}

// denseA returns A = -C⁻¹G densely for reference computations.
func denseA(cm, gm *sparse.CSC) *dense.Matrix {
	n := cm.Rows
	cd := cm.Dense()
	gd := gm.Dense()
	a := dense.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, -gd[i][j]/cd[i][i]) // C diagonal
		}
	}
	return a
}

func buildOps(t testing.TB, cm, gm *sparse.CSC, gamma float64) (std, inv, rat *Op) {
	t.Helper()
	factC, _, err := sparse.NewCache(0).Factor(cm, sparse.OrderDefault)
	if err != nil {
		t.Fatal(err)
	}
	factG, _, err := sparse.NewCache(0).Factor(gm, sparse.OrderDefault)
	if err != nil {
		t.Fatal(err)
	}
	factS, _, err := sparse.NewCache(0).FactorSum(1, cm, gamma, gm, sparse.OrderDefault)
	if err != nil {
		t.Fatal(err)
	}
	cnt1, cnt2, cnt3 := &Counters{}, &Counters{}, &Counters{}
	return NewStandardOp(factC, cm, gm, cnt1),
		NewInvertedOp(factG, cm, gm, cnt2),
		NewRationalOp(factS, cm, gm, gamma, cnt3)
}

// aug embeds an MNA-space vector into the augmented space with zero input
// columns: e^{hÃ}[v;0;1] then has x-part e^{hA}v. For the plain (inverted)
// operator it returns v unchanged.
func aug(op *Op, v []float64) []float64 {
	if op.N() == len(v) {
		return append([]float64(nil), v...)
	}
	out := make([]float64, len(v)+2)
	copy(out, v)
	out[len(v)+1] = 1
	return out
}

func TestModeString(t *testing.T) {
	if Standard.String() != "MEXP" || Inverted.String() != "I-MATEX" || Rational.String() != "R-MATEX" {
		t.Error("mode strings changed")
	}
	if Mode(9).String() != "unknown" {
		t.Error("unknown mode string")
	}
}

// TestParseMethod: "lanczos" stays a spelling of auto for the flags, specs
// and journals that name it.
func TestParseMethod(t *testing.T) {
	for s, want := range map[string]Method{"": MethodAuto, "auto": MethodAuto, "lanczos": MethodAuto, "arnoldi": MethodArnoldi} {
		if m, err := ParseMethod(s); err != nil || m != want {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", s, m, err, want)
		}
	}
	if _, err := ParseMethod("gmres"); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestAllModesMatchDenseExpm(t *testing.T) {
	n := 12
	cm, gm := rcSystem(n, 1e3, 1)
	a := denseA(cm, gm)
	h := 2e-13
	gamma := 1e-13
	std, inv, rat := buildOps(t, cm, gm, gamma)

	rng := rand.New(rand.NewSource(2))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	want, err := dense.ExpmVec(a, h, v)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		op   *Op
	}{{"standard", std}, {"inverted", inv}, {"rational", rat}} {
		sub, err := Arnoldi(tc.op, aug(tc.op, v), []float64{h}, Options{MaxDim: n + 2, Tol: 1e-10})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := make([]float64, tc.op.N())
		if err := sub.EvalExp(h, got); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var maxAbs, diff float64
		for i := range want {
			if a := math.Abs(want[i]); a > maxAbs {
				maxAbs = a
			}
			if d := math.Abs(got[i] - want[i]); d > diff {
				diff = d
			}
		}
		// The posterior estimators are empirical (paper Sec. 3.3.3); the
		// achieved accuracy class is ~1e-4 of signal (Table 1 reports
		// 0.004% errors), so assert that, not the raw Arnoldi tolerance.
		if diff > 1e-3*(1+maxAbs) {
			t.Errorf("%s: max deviation %g vs dense expm (m=%d)", tc.name, diff, sub.Dim())
		}
		// Auxiliary block invariant for augmented modes: e^{hN} on the
		// polynomial part gives y1 = h, y2 = 1.
		if tc.op.N() == n+2 {
			if math.Abs(got[n]-h) > 1e-9*(1+h) || math.Abs(got[n+1]-1) > 1e-9 {
				t.Errorf("%s: aux block = (%g, %g), want (%g, 1)", tc.name, got[n], got[n+1], h)
			}
		}
	}
}

func TestInputColumnsMatchPhiForm(t *testing.T) {
	// With nonzero segment vectors, the augmented evaluation must equal
	// x(h) = e^{hA}x + h·φ1(hA)b0 + h²·φ2(hA)b1, which for this diagonal
	// test system is computable analytically per mode.
	n := 4
	ct := sparse.NewTriplet(n, n)
	gt := sparse.NewTriplet(n, n)
	lams := []float64{1e11, 3e11, 1e12, 2e12}
	for i := 0; i < n; i++ {
		ct.Add(i, i, 1e-12)
		gt.Add(i, i, lams[i]*1e-12) // A = -diag(lams)
	}
	cm, gm := ct.ToCSC(), gt.ToCSC()
	gamma := 1e-12
	std, _, rat := buildOps(t, cm, gm, gamma)

	x := []float64{1, -2, 0.5, 3}
	buRaw := []float64{2e-12 * 1e11, 0, 1e-12 * 1e12, 0} // so b0 = C⁻¹bu has nice values
	sRaw := []float64{0, 1e-12 * 3e11 * 1e10, 0, 0}
	h := 2e-12
	phi1 := func(z float64) float64 {
		if math.Abs(z) < 1e-8 {
			return 1 + z/2
		}
		return (math.Exp(z) - 1) / z
	}
	phi2 := func(z float64) float64 {
		if math.Abs(z) < 1e-8 {
			return 0.5 + z/6
		}
		return (math.Exp(z) - 1 - z) / (z * z)
	}
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		z := -lams[i] * h
		b0 := buRaw[i] / 1e-12
		b1 := sRaw[i] / 1e-12
		want[i] = math.Exp(z)*x[i] + h*phi1(z)*b0 + h*h*phi2(z)*b1
	}
	for _, tc := range []struct {
		name string
		op   *Op
	}{{"standard", std}, {"rational", rat}} {
		tc.op.SetSegment(buRaw, sRaw)
		sub, err := Arnoldi(tc.op, aug(tc.op, x), []float64{h}, Options{MaxDim: n + 2, Tol: 1e-12})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := make([]float64, n+2)
		if err := sub.EvalExp(h, got); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := 0; i < n; i++ {
			if math.Abs(got[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				t.Errorf("%s: x[%d] = %g, want %g", tc.name, i, got[i], want[i])
			}
		}
	}
}

func TestRationalNeedsFewerDimensionsOnStiff(t *testing.T) {
	n := 30
	cm, gm := rcSystem(n, 1e8, 3) // stiff
	gamma := 1e-12
	std, _, rat := buildOps(t, cm, gm, gamma)
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	h := 5e-12
	subStd, errStd := Arnoldi(std, aug(std, v), []float64{h}, Options{MaxDim: n + 2, Tol: 1e-8})
	subRat, errRat := Arnoldi(rat, aug(rat, v), []float64{h}, Options{MaxDim: n + 2, Tol: 1e-8})
	if errRat != nil {
		t.Fatalf("rational failed: %v", errRat)
	}
	if errStd == nil && subStd.Dim() <= subRat.Dim() {
		t.Errorf("standard dim %d <= rational dim %d on stiff problem", subStd.Dim(), subRat.Dim())
	}
	if subRat.Dim() > 18 {
		t.Errorf("rational dim %d unexpectedly large", subRat.Dim())
	}
}

func TestArnoldiRelationAndOrthogonality(t *testing.T) {
	n := 20
	cm, gm := rcSystem(n, 1e2, 4)
	_, inv, _ := buildOps(t, cm, gm, 1e-13)
	rng := rand.New(rand.NewSource(5))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	sub, err := Arnoldi(inv, v, []float64{1e-12}, Options{MaxDim: 15, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	m := sub.Dim()
	// V orthonormal.
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			d := dot(sub.v[i], sub.v[j])
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(d-want) > 1e-10 {
				t.Fatalf("VᵀV[%d][%d] = %g", i, j, d)
			}
		}
	}
	// Arnoldi relation M·V_m = V_m·Ĥ_m + ĥ_{m+1,m}·v_{m+1}·e_mᵀ: what the
	// basis leaves of M·v_j is nil but for the last column, whose remainder
	// is ĥ_{m+1,m}.
	w := make([]float64, inv.N())
	for j := 0; j < m; j++ {
		inv.Apply(w, sub.v[j])
		for i := 0; i < m; i++ {
			axpy(w, -dot(w, sub.v[i]), sub.v[i])
		}
		res := norm2(w)
		if j < m-1 {
			if res > 1e-9 {
				t.Fatalf("Arnoldi relation residual %g at column %d", res, j)
			}
		} else if math.Abs(res-math.Abs(sub.hsub)) > 1e-9*(1+res) {
			t.Fatalf("last-column residual %g != ĥ_{m+1,m} %g", res, sub.hsub)
		}
	}
}

// diagOp is the inverted operator of C = I, G = diag(1, …, n): A = -G, so
// every unit vector is an eigenvector and e^{hA} is known exactly.
func diagOp(t *testing.T, n int) *Op {
	t.Helper()
	ct := sparse.NewTriplet(n, n)
	gt := sparse.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		ct.Add(i, i, 1)
		gt.Add(i, i, float64(i+1))
	}
	_, inv, _ := buildOps(t, ct.ToCSC(), gt.ToCSC(), 0.1)
	return inv
}

// ramp is the diagOp start vector 1, 2, …, n: every mode excited.
func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 + float64(i)
	}
	return v
}

// exactOnDiag checks sub against e^{-hG}v on a diagOp system.
func exactOnDiag(t *testing.T, sub *Subspace, v []float64, h float64) {
	t.Helper()
	got := make([]float64, len(v))
	if err := sub.EvalExp(h, got); err != nil {
		t.Fatal(err)
	}
	for i := range v {
		want := v[i] * math.Exp(-float64(i+1)*h)
		if math.Abs(got[i]-want) > 1e-10*(1+math.Abs(want)) {
			t.Errorf("component %d = %g, want %g (m=%d)", i, got[i], want, sub.Dim())
		}
	}
}

// TestProtocol runs the cases of the one convergence protocol through both
// processes: each must end where the protocol says, whatever recurrence
// feeds it.
func TestProtocol(t *testing.T) {
	procs := []struct {
		name string
		gen  func(*Op, []float64, []float64, Options) (*Subspace, error)
	}{{"Arnoldi", Arnoldi}, {"Lanczos", Lanczos}}
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T) (*Op, []float64)
		h     float64
		opts  Options
		check func(t *testing.T, op *Op, v []float64, sub *Subspace, err error)
	}{{
		// e^{hA}·0 = 0 from a dimension-1 dummy.
		name: "zero_vector",
		setup: func(t *testing.T) (*Op, []float64) {
			cm, gm := rcSystem(5, 10, 6)
			_, inv, _ := buildOps(t, cm, gm, 1e-13)
			return inv, make([]float64, 5)
		},
		h: 1e-12,
		check: func(t *testing.T, op *Op, _ []float64, sub *Subspace, err error) {
			if err != nil {
				t.Fatal(err)
			}
			dst := []float64{1, 1, 1, 1, 1}
			if err := sub.EvalExp(1e-12, dst); err != nil {
				t.Fatal(err)
			}
			for _, v := range dst {
				if v != 0 {
					t.Fatal("expm of zero vector not zero")
				}
			}
			if est, _ := sub.ErrEstimate(1e-12); est != 0 {
				t.Fatal("zero vector error estimate not zero")
			}
			if c := op.Count; c.Spots() != 1 || c.MP() != 1 {
				t.Errorf("Dims = %v, want one spot of dimension 1", c.Dims)
			}
		},
	}, {
		// An eigenvector start spans an invariant space at dimension 1
		// (happy breakdown), and the answer is exact.
		name: "invariant_subspace",
		setup: func(t *testing.T) (*Op, []float64) {
			v := make([]float64, 6)
			v[2] = 3.0 // eigenvector with A = -G, eigenvalue -3
			return diagOp(t, 6), v
		},
		h:    0.5,
		opts: Options{MaxDim: 8, Tol: 1e-12},
		check: func(t *testing.T, _ *Op, _ []float64, sub *Subspace, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if sub.Dim() != 1 {
				t.Fatalf("dim = %d, want 1 (happy breakdown)", sub.Dim())
			}
			got := make([]float64, 6)
			if err := sub.EvalExp(0.5, got); err != nil {
				t.Fatal(err)
			}
			if want := 3 * math.Exp(-1.5); math.Abs(got[2]-want) > 1e-9 {
				t.Errorf("EvalExp = %v, want %v at index 2", got[2], want)
			}
			if est, err := sub.ErrEstimate(0.5); err != nil || est > 1e-12 {
				t.Errorf("invariant subspace estimate = %g (%v), want ~0", est, err)
			}
		},
	}, {
		// The estimate cannot pass short of n dimensions, and the exhausted
		// basis is accepted on the operator's own residual (odeDefect): one
		// application beyond the n of the recurrence.
		name: "full_space",
		setup: func(t *testing.T) (*Op, []float64) {
			return diagOp(t, 5), ramp(5)
		},
		h:    0.1,
		opts: Options{MaxDim: 5, Tol: 1e-10},
		check: func(t *testing.T, op *Op, v []float64, sub *Subspace, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if sub.Dim() != 5 {
				t.Fatalf("dim = %d, want 5", sub.Dim())
			}
			exactOnDiag(t, sub, v, 0.3)
			if op.Count.SolvePairs != 6 {
				t.Errorf("%d substitution pairs, want 5 + 1 for the residual check", op.Count.SolvePairs)
			}
		},
	}, {
		// ForceDim builds exactly MaxDim = n dimensions and stops: no check
		// beyond the recurrence's n substitution pairs, even on a tolerance
		// the estimate cannot pass.
		name: "force_dim",
		setup: func(t *testing.T) (*Op, []float64) {
			return diagOp(t, 5), ramp(5)
		},
		h:    0.1,
		opts: Options{MaxDim: 5, Tol: 1e-30, ForceDim: true},
		check: func(t *testing.T, op *Op, v []float64, sub *Subspace, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if sub.Dim() != 5 {
				t.Fatalf("dim = %d, want 5", sub.Dim())
			}
			exactOnDiag(t, sub, v, 0.3)
			if op.Count.SolvePairs != 5 {
				t.Errorf("%d substitution pairs, want 5", op.Count.SolvePairs)
			}
		},
	}, {
		// An unreachable tolerance is ErrNoConvergence with the best-effort
		// subspace: the dimension of the smallest estimate, recorded once,
		// and usable.
		name: "no_convergence",
		setup: func(t *testing.T) (*Op, []float64) {
			cm, gm := rcSystem(40, 1e12, 7)
			std, _, _ := buildOps(t, cm, gm, 1e-13)
			v := make([]float64, 40)
			for i := range v {
				v[i] = 1
			}
			return std, padAug(v)
		},
		h:    1e-11,
		opts: Options{MaxDim: 4, Tol: 1e-14},
		check: func(t *testing.T, op *Op, _ []float64, sub *Subspace, err error) {
			if !errors.Is(err, ErrNoConvergence) {
				t.Fatalf("expected ErrNoConvergence, got %v", err)
			}
			if sub == nil {
				t.Fatal("no best-effort subspace")
			}
			if m := sub.Dim(); m < 1 || m > 4 || !strings.Contains(err.Error(), fmt.Sprintf("best dim %d,", m)) {
				t.Errorf("best-effort dim %d against %q", m, err)
			}
			if c := op.Count; c.Spots() != 1 || c.MP() != sub.Dim() {
				t.Errorf("Dims = %v, want one spot of dimension %d", c.Dims, sub.Dim())
			}
			got := make([]float64, op.N())
			if err := sub.EvalExp(1e-11, got); err != nil {
				t.Fatal(err)
			}
			for i, x := range got {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("best-effort EvalExp[%d] = %g", i, x)
				}
			}
		},
	}} {
		for _, p := range procs {
			t.Run(tc.name+"/"+p.name, func(t *testing.T) {
				op, v := tc.setup(t)
				sub, err := p.gen(op, v, []float64{tc.h}, tc.opts)
				tc.check(t, op, v, sub, err)
			})
		}
	}
}

// TestWorkspaceReuseAcrossDimensions: the dense scratch on a workspace is
// grown to the largest dimension it has seen and reused at smaller ones,
// and the Hessenberg matrix is zeroed only when MaxDim changes its shape.
// On one workspace, R-MATEX Arnoldi subspaces of dimension 8, then 3, then 8
// (three shapes), then under one MaxDim of 12 a loose, a tight and again a
// loose tolerance (one shape, the second loose spot on the tight one's
// leftover columns) give the projection, the estimates and the evaluations
// of a fresh workspace bit for bit.
func TestWorkspaceReuseAcrossDimensions(t *testing.T) {
	n := 20
	cm, gm := rcSystem(n, 1e3, 11)
	_, _, rat := buildOps(t, cm, gm, 1e-13)
	v := aug(rat, randVec(n, 12))
	steps := []float64{2.5e-14, 1e-13, 4e-13}
	runs := []Options{
		{MaxDim: 8, ForceDim: true},
		{MaxDim: 3, ForceDim: true},
		{MaxDim: 8, ForceDim: true},
		{MaxDim: 12, Tol: 0.3},
		{MaxDim: 12, Tol: 0.03},
		{MaxDim: 12, Tol: 0.3},
	}
	ws := &Workspace{}
	var dims []int
	for _, opts := range runs {
		gen := func(ws *Workspace) (m int, hm []float64, evals [][]float64) {
			opts := opts
			opts.Workspace = ws
			sub, err := Arnoldi(rat, v, steps[1:2], opts)
			if err != nil {
				t.Fatal(err)
			}
			if opts.ForceDim && sub.Dim() != opts.MaxDim {
				t.Fatalf("ForceDim %d gave dimension %d", opts.MaxDim, sub.Dim())
			}
			hm = append(hm, sub.Hm().Data...)
			for _, h := range steps {
				est, err := sub.ErrEstimate(h)
				if err != nil {
					t.Fatal(err)
				}
				dst := make([]float64, rat.N())
				if err := sub.EvalExp(h, dst); err != nil {
					t.Fatal(err)
				}
				evals = append(evals, append(dst, est))
			}
			return sub.Dim(), hm, evals
		}
		m, hm, evals := gen(ws)
		_, wantHm, wantEvals := gen(nil)
		dims = append(dims, m)
		if !sameBits(hm, wantHm) {
			t.Errorf("%+v: the reused workspace's projection differs from a fresh one's", opts)
		}
		for k := range evals {
			if !sameBits(evals[k], wantEvals[k]) {
				t.Errorf("%+v h=%g: the reused workspace's evaluation or estimate differs from a fresh one's", opts, steps[k])
			}
		}
	}
	if loose, tight := dims[3], dims[4]; loose >= tight || dims[5] != loose {
		t.Errorf("dimensions %v: the loose spots must stop below the tight one", dims)
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestFig5ErrorDecreasesWithH(t *testing.T) {
	// The paper's Fig. 5 property: for the rational subspace, the actual
	// error against dense expm decreases as the step h increases.
	n := 14
	cm, gm := rcSystem(n, 1e6, 8)
	a := denseA(cm, gm)
	gamma := 1e-12
	_, _, rat := buildOps(t, cm, gm, gamma)
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	m := 6
	vp := make([]float64, n+2) // [v;0;0]: the aux chain never enters the space
	copy(vp, v)
	sub, err := Arnoldi(rat, vp, []float64{1e-10}, Options{MaxDim: m, ForceDim: true})
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = math.Inf(1)
	for _, h := range []float64{1e-13, 1e-12, 1e-11, 1e-10} {
		want, err := dense.ExpmVec(a, h, v)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n+2)
		if err := sub.EvalExp(h, got); err != nil {
			t.Fatal(err)
		}
		var diff float64
		for i := range want {
			diff += (got[i] - want[i]) * (got[i] - want[i])
		}
		diff = math.Sqrt(diff)
		if diff > prev*1.5 {
			t.Errorf("error grew from %g to %g as h increased to %g", prev, diff, h)
		}
		prev = diff
	}
}

func TestCounters(t *testing.T) {
	cm, gm := rcSystem(10, 1e2, 9)
	_, inv, _ := buildOps(t, cm, gm, 1e-13)
	v := make([]float64, 10)
	for i := range v {
		v[i] = 1
	}
	if _, err := Arnoldi(inv, v, []float64{1e-12}, Options{MaxDim: 12, Tol: 1e-9}); err != nil {
		t.Fatal(err)
	}
	c := inv.Count
	if c.SolvePairs == 0 || c.SpMVs == 0 || c.Spots() != 1 {
		t.Fatalf("counters not updated: %+v", c)
	}
}

func TestSetSegmentAndClear(t *testing.T) {
	cm, gm := rcSystem(6, 10, 11)
	_, _, rat := buildOps(t, cm, gm, 1e-12)
	bu := []float64{1, 0, 0, 0, 0, 0}
	s := []float64{0, 2, 0, 0, 0, 0}
	rat.SetSegment(bu, s)
	if rat.bcol0[0] != 1 || rat.bcol1[1] != 2 {
		t.Fatal("rational SetSegment should store raw vectors")
	}
	rat.ClearSegment()
	for i := range rat.bcol0 {
		if rat.bcol0[i] != 0 || rat.bcol1[i] != 0 {
			t.Fatal("ClearSegment left residue")
		}
	}

	// Standard mode: one substitution pair per input column, on an LDLᵀ
	// factor of a symmetric C and an LU factor of an unsymmetric one.
	n := cm.Rows
	ct := sparse.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		ct.Add(i, i, 1e-12)
		if i+1 < n {
			ct.Add(i, i+1, 2e-13)
			ct.Add(i+1, i, -1e-13)
		}
	}
	cu := ct.ToCSC()
	ldlt, err := sparse.FactorLDLT(cm, sparse.OrderDefault)
	if err != nil {
		t.Fatal(err)
	}
	lu, err := sparse.FactorLU(cu, sparse.OrderDefault, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name string
		c    *sparse.CSC
		fact sparse.Factorization
	}{{"LDLT", cm, ldlt}, {"LU", cu, lu}} {
		cnt := &Counters{}
		std := NewStandardOp(tc.fact, tc.c, gm, cnt)
		want0, want1 := make([]float64, n), make([]float64, n)
		for call := 1; call <= 3; call++ {
			bu, s := make([]float64, n), make([]float64, n)
			for i := range bu {
				bu[i], s[i] = rng.NormFloat64(), rng.NormFloat64()
			}
			tc.fact.SolveWith(want0, bu, make([]float64, n))
			tc.fact.SolveWith(want1, s, make([]float64, n))
			std.SetSegment(bu, s)
			for i := 0; i < n; i++ {
				if std.bcol0[i] != want0[i] || std.bcol1[i] != want1[i] {
					t.Fatalf("%s call %d entry %d: bcol0/bcol1 = %v/%v, SolveWith %v/%v",
						tc.name, call, i, std.bcol0[i], std.bcol1[i], want0[i], want1[i])
				}
			}
			if cnt.SolvePairs != 2*call {
				t.Fatalf("%s call %d: SolvePairs = %d, want %d", tc.name, call, cnt.SolvePairs, 2*call)
			}
		}
	}
}

// Property: for random small RC systems, the rational-Krylov result at
// convergence matches dense expm within the empirical accuracy class.
func TestQuickRationalAccuracy(t *testing.T) {
	f := func(seed int64) bool {
		n := 6 + int(seed%7+7)%7
		cm, gm := rcSystem(n, 1e4, seed)
		a := denseA(cm, gm)
		gamma := 1e-12
		_, _, rat := buildOps(t, cm, gm, gamma)
		rng := rand.New(rand.NewSource(seed + 1000))
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		h := 1e-12
		sub, err := Arnoldi(rat, aug(rat, v), []float64{h}, Options{MaxDim: n + 2, Tol: 1e-9})
		if err != nil {
			return false
		}
		want, err := dense.ExpmVec(a, h, v)
		if err != nil {
			return false
		}
		got := make([]float64, n+2)
		if err := sub.EvalExp(h, got); err != nil {
			return false
		}
		var scale float64 = 1
		for i := range want {
			if math.Abs(want[i]) > scale {
				scale = math.Abs(want[i])
			}
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-5*scale {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(77))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
